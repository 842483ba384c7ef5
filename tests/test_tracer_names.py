"""Every function the benchmark tracer wraps still exists where it looks.

``perfbench/tracing.py`` patches each qualified name in ``SPANNED`` and
``COUNTED`` by looking it up in its layer's module, or in its class's own
``__dict__``; a refactor that moves or renames one would break ``--trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _names():
    tracing = _tracing()
    out = [(layer, q) for layer, names in tracing.SPANNED.items() for q in names]
    out += list(tracing.COUNTED.values())
    return out


@pytest.mark.parametrize("layer, qualname", _names())
def test_traced_name_resolves(layer, qualname):
    mod = importlib.import_module(f"hopf_forge.{layer}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = vars(mod)[cls_name]
        assert isinstance(cls, type) and cls.__module__ == mod.__name__
        assert attr in cls.__dict__, f"{qualname} is not defined in its class body"
    else:
        fn = vars(mod).get(qualname)
        assert callable(fn), f"{layer}.{qualname} is not a module-level function"
        assert fn.__module__ == mod.__name__, f"{layer}.{qualname} is an import"
