"""Contraction of the quantum so(2,2) onto the null-plane Poincare algebra.

The contraction rescales each so(2,2) generator by a power eps^d of a formal
parameter eps (with 1/sqrt(2) factors) and substitutes z = sqrt(2)*eps*w.
The `nullplane-eps` bundle is so(2,2) in null-plane generators, still in z,
built by :func:`~hopf_forge.algebras.transport` from the change of
generators g = c * S for each ``g -> (S, d, c)`` of :data:`CONTRACTION_MAP`:
its rules, coproducts, antipodes, counits and Casimirs are the so(2,2) ones
carried over by ``substitute``.  The result is graded: a term
``c * z^k * word`` carries exactly one eps power, ``offset + k - d(word)``,
where ``d(word)`` adds up the eps weights of the word's generators and
``offset`` is fixed per element (``d_j + d_i`` for the rule of ``g_j*g_i``,
``d`` for the coproduct, antipode or counit of a generator of weight ``d``,
2 and 1 for the scaled Casimirs, 0 for the universal R).  Rewriting keeps
the grading, since the rules are built from the same weights.

:meth:`Contraction.limit` is the one place where z^k becomes 2^(k/2) w^k.
Scaling each term of power k by lambda^k is a ring automorphism of graded
terms, so it commutes with rewriting and can be applied once, at the end.
The engine then asserts that

* no structure constant, coproduct or scaled Casimir keeps a negative eps
  power (a pole would mean a wrong scale assignment), and
* the eps^0 part reproduces the null-plane preset exactly.
"""

from __future__ import annotations

import time

from .coeff import FE_ONE, FE_SQRT2, FieldElem, rat
from .ncalg import NCElement, TensorElement
from .algebras import classical_bracket_element, preset, transport
from .report import CheckReport, timed_reports


# null-plane generator -> (so22 generator, eps power, scale factor)
_HALF_SQRT2 = FieldElem(0, rat(1, 2))          # 1/sqrt(2)
CONTRACTION_MAP = {
    "P_plus": ("P", 1, _HALF_SQRT2),
    "P_1": ("J_hat", 1, FE_ONE),
    "P_minus": ("C_2", 1, -_HALF_SQRT2),
    "E_1": ("P0_hat", 0, -_HALF_SQRT2),
    "F_1": ("C_1", 0, _HALF_SQRT2),
    "K_2": ("D", 0, FE_ONE),
}


class Contraction:
    """Finite-eps image of the so(2,2) preset in the nullplane bundle's variables."""

    def __init__(self, np):
        self.order = order = np.order
        self.so22 = preset("so22", order)
        self.np = np
        so_alg = self.so22.presentation
        np_alg = self.np.presentation
        self.scale = {np_alg.index[n]: (so_alg.index[s], d, c)
                      for n, (s, d, c) in CONTRACTION_MAP.items()}
        self.eps = transport(
            self.so22, "nullplane-eps", np_alg.generators,
            lambda alg: {s: alg.gen(n) * c.inverse() for n, (s, _, c) in CONTRACTION_MAP.items()},
            {n: so_alg.gen(s) * c for n, (s, _, c) in CONTRACTION_MAP.items()},
            np_alg.latex_names)
        self.alg = self.eps.presentation

    def eps_power(self, offset, word, k):
        """The eps power of the term ``c * z^k * word`` of an element with eps
        offset ``offset``: ``offset + k - d(word)`` (a tensor term passes its
        slot words joined)."""
        return offset + k - sum(self.scale[g][1] * e for g, e in word)

    def rule_offset(self, j, i):
        """The eps offset of the contracted rule (and commutator) of g_j*g_i."""
        return self.scale[j][1] + self.scale[i][1]

    def commutator(self, j, i):
        """[g_j, g_i] in the eps algebra, of eps offset :meth:`rule_offset`."""
        return self.alg.gen(j).commutator(self.alg.gen(i))

    def limit(self, x, offset):
        """``(poles, eps^0 part)`` of an eps-algebra element or tensor ``x``
        of eps offset ``offset``.

        ``poles`` lists ``(word, lowest eps power)`` for each word (slot-word
        tuple for a tensor) with a negative eps power; the eps^0 part is a
        null-plane element or tensor, with z^k = 2^(k/2) w^k.
        """
        tensor = isinstance(x, TensorElement)
        poles, out = {}, {}
        for (w, k), c in x.terms.items():
            m = self.eps_power(offset, sum(w, ()) if tensor else w, k)
            if m < 0:
                poles[w] = min(m, poles.get(w, m))
            elif m == 0:
                out[(w, k)] = c * FE_SQRT2 ** k
        np_alg = self.np.presentation
        part = TensorElement(np_alg, x.arity, out) if tensor else NCElement(np_alg, out)
        return list(poles.items()), part

    # -- checks ------------------------------------------------------------------

    def check_commutators(self):
        np_alg = self.np.presentation
        rep = CheckReport(check="contraction-commutators", algebra="nullplane",
                          order=self.order)
        for j in range(6):
            for i in range(j):
                label = f"[{np_alg.generators[j]},{np_alg.generators[i]}]"
                poles, got = self.limit(self.commutator(j, i), self.rule_offset(j, i))
                if poles:
                    rep.add_failure(label, f"eps poles: {poles}")
                    continue
                rep.expect_zero(label, got - np_alg.gen(j).commutator(np_alg.gen(i)))
        return rep

    def check_coproducts(self):
        np_alg = self.np.presentation
        rep = CheckReport(check="contraction-coproducts", algebra="nullplane",
                          order=self.order)
        for ni in range(6):
            label = f"Delta({np_alg.generators[ni]})"
            poles, got = self.limit(self.eps.hopf.delta[ni], self.scale[ni][1])
            if poles:
                rep.add_failure(label, f"eps poles: {poles}")
                continue
            rep.expect_zero(label, got - self.np.hopf.delta[ni])
        return rep

    def check_casimirs(self):
        """M_q^2 = lim -eps^2 C1_q and L_q = (1/2) lim eps C2_q."""
        rep = CheckReport(check="contraction-casimirs", algebra="nullplane",
                          order=self.order)
        cas = self.eps.casimirs
        # the mapped Casimirs have eps offset 0; the prefactor eps^shift sets it
        for label, raw, shift, scalar, target in (
                ("M_q2", cas["C1_q"], 2, FieldElem(-1), self.np.casimirs["M_q2"]),
                ("L_q", cas["C2_q"], 1, FieldElem(rat(1, 2)), self.np.casimirs["L_q"])):
            poles, got = self.limit(raw * scalar, shift)
            if poles:
                # report the eps valuation that would have worked
                worst = min(m for _, m in poles)
                rep.add_failure(label, f"eps poles: {poles}; "
                                       f"stated prefactor off by eps^{-worst}")
                continue
            rep.expect_zero(label, got - target)
        return rep

    def check_classical_compatibility(self):
        """eps^0 then w -> 0 of each contracted bracket is the classical table."""
        np_alg = self.np.presentation
        rep = CheckReport(check="contraction-classical", algebra="nullplane",
                          order=self.order)
        for j in range(6):
            for i in range(j):
                x, y = np_alg.generators[j], np_alg.generators[i]
                poles, got = self.limit(self.commutator(j, i), self.rule_offset(j, i))
                if poles:
                    rep.add_failure(f"[{x},{y}]", "eps poles")
                    continue
                got = got.classical_limit()
                if not (got - classical_bracket_element(np_alg, x, y)).is_zero():
                    rep.add_failure(f"[{x},{y}]", repr(got))
        return rep


def contract_so22(np):
    """Run the full contraction suite onto the nullplane bundle ``np``; returns
    the list of reports, each with its own measured time.  Building the eps
    presentation counts towards the first report, the first check that needs it."""
    t0 = time.monotonic()
    c = Contraction(np)
    build = time.monotonic() - t0
    reports = timed_reports(c.check_commutators, c.check_coproducts, c.check_casimirs,
                            c.check_classical_compatibility)
    reports[0].seconds += build
    return reports
