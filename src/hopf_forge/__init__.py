"""hopf-forge: exact verification engine for non-standard quantum deformations.

Builds the quantum sl(2,R), so(2,2) and (2+1) null-plane Poincare algebras in
exact arithmetic and mechanically checks every structural identity they are
supposed to satisfy: Hopf axioms, Casimir centrality, quantum and classical
Yang-Baxter equations, the so(2,2) -> Poincare contraction, the Sklyanin
Poisson structure and its FRT quantization, and the momentum-space
differential representation.
"""

__version__ = "0.1.0"

from .coeff import (  # noqa: F401
    DeformationSeries,
    FieldElem,
    NonInvertible,
    NonzeroConstantTerm,
    ZeroDivisor,
    rat,
)
from .ncalg import (  # noqa: F401
    AlgebraMismatch,
    AlgebraPresentation,
    ArityMismatch,
    NCElement,
    NonTerminating,
    TensorElement,
    UnmappedGenerator,
)
from .report import CheckReport  # noqa: F401
from .algebras import PRESET_NAMES, preset  # noqa: F401
