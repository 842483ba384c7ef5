"""Contraction of the quantum so(2,2) onto the null-plane Poincare algebra.

The contraction rescales each so(2,2) generator by a power eps^d of a formal
parameter eps (with 1/sqrt(2) factors) and substitutes z = sqrt(2)*eps*w.
The result is graded: a term ``c * w^k * word`` of a contracted element
carries exactly one eps power, ``offset + k - d(word)``, where ``d(word)``
adds up the eps weights of the word's generators and ``offset`` is fixed per
element (``d_j + d_i`` for the rule of ``g_j*g_i``, ``d`` for the coproduct of
a generator of weight ``d``, 2 and 1 for the scaled Casimirs).  Rewriting
keeps the grading, since the rules are built from the same weights.  So the
`nullplane-eps` presentation holds the eps = 1 specialisation, with plain
Q(sqrt 2) scalars, and :meth:`Contraction.eps_power` reads each term's eps
power off its key.  The engine then asserts that

* no structure constant, coproduct or scaled Casimir keeps a negative eps
  power (a pole would mean a wrong scale assignment), and
* the eps^0 part reproduces the null-plane preset exactly.
"""

from __future__ import annotations

from .coeff import FE_ONE, FE_SQRT2, FieldElem, rat
from .ncalg import AlgebraPresentation, NCElement, TensorElement, add_term
from .algebras import (SO22_C1Q_RECIPE, SO22_C2Q_RECIPE, eval_recipe, preset,
                       so22_structure_env)
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
    """Finite-eps image of the so(2,2) preset in null-plane variables."""

    def __init__(self, order):
        self.order = order
        self.so22 = preset("so22", order)
        self.np = preset("nullplane", order)
        so_alg = self.so22.presentation
        np_alg = self.np.presentation
        # so22 generator index -> (np index, inverse scale)
        self.gen_image = {so_alg.index[s]: (np_alg.index[n], c.inverse())
                          for n, (s, _, c) in CONTRACTION_MAP.items()}
        self.scale = {np_alg.index[n]: (so_alg.index[s], d, c)
                      for n, (s, d, c) in CONTRACTION_MAP.items()}
        self.alg = self._build_presentation()

    def eps_power(self, offset, word, k):
        """The eps power of the term ``c * w^k * word`` of an element with eps
        offset ``offset``: ``offset + k - d(word)`` (a tensor term passes its
        slot words joined)."""
        return offset + k - sum(self.scale[g][1] * e for g, e in word)

    # -- coefficient and element transport -----------------------------------

    @staticmethod
    def _map_term(c, k):
        """The eps = 1 scalar of c*z^k with z = sqrt(2)*eps*w, which keeps the
        power k of w: 2^(k/2) c (the eps power k is read off the key)."""
        return c * (FE_SQRT2 ** k)

    def _map_word(self, w):
        """The null-plane image of an so(2,2) word and its scale factor.

        Requires the image word to stay normal ordered (true for all the
        structure functions this engine transports; products that would need
        reordering are formed inside the eps algebra instead).
        """
        img = tuple((self.gen_image[g][0], e) for g, e in w)
        if any(a[0] >= b[0] for a, b in zip(img, img[1:])):
            raise ValueError("image word needs reordering; build it in the eps algebra")
        factor = FE_ONE
        for g, e in w:
            factor = factor * (self.gen_image[g][1] ** e)
        return img, factor

    def map_element(self, x, target=None):
        """so(2,2) element -> null-plane element of eps offset 0."""
        out = {}
        for (w, k), c in x.terms.items():
            img, factor = self._map_word(w)
            add_term(out, (img, k), self._map_term(c, k) * factor)
        return NCElement(target or self.alg, out)

    # -- the finite-eps presentation ------------------------------------------

    def _build_presentation(self):
        np_alg = self.np.presentation
        alg = AlgebraPresentation("nullplane-eps", np_alg.generators, "w", self.order)
        so_alg = self.so22.presentation
        self._rule_commutators = {}
        for j in range(6):
            for i in range(j):
                sj, _, cj = self.scale[j]
                si, _, ci = self.scale[i]
                comm_so = so_alg.gen(sj).commutator(so_alg.gen(si))
                self._rule_commutators[(j, i)] = self.map_element(comm_so, alg) * (cj * ci)
        alg.set_commutators(self._rule_commutators)
        return alg

    def rule_offset(self, j, i):
        """The eps offset of the contracted rule (and commutator) of g_j*g_i."""
        return self.scale[j][1] + self.scale[i][1]

    def eps0_element(self, x, offset):
        """The eps^0 part of ``x`` as a plain null-plane element; None if
        poles remain."""
        out = {}
        for (w, k), c in x.terms.items():
            m = self.eps_power(offset, w, k)
            if m < 0:
                return None
            if m == 0:
                out[(w, k)] = c
        return NCElement(self.np.presentation, out)

    @staticmethod
    def pole_terms(powers):
        """(word, lowest eps power) of each word with a negative eps power,
        from ``{(word, k): eps power}``."""
        poles = {}
        for (w, _), m in powers.items():
            if m < 0:
                poles[w] = min(m, poles.get(w, m))
        return list(poles.items())

    def _powers(self, x, offset):
        return {(w, k): self.eps_power(offset, w, k) for w, k in x.terms}

    # -- checks ------------------------------------------------------------------

    def check_commutators(self):
        np_alg = self.np.presentation
        rep = CheckReport(check="contraction-commutators", algebra="nullplane",
                          order=self.order)
        for (j, i), comm in self._rule_commutators.items():
            label = f"[{np_alg.generators[j]},{np_alg.generators[i]}]"
            offset = self.rule_offset(j, i)
            poles = self.pole_terms(self._powers(comm, offset))
            if poles:
                rep.add_failure(label, f"eps poles: {poles}")
                continue
            got = self.eps0_element(comm, offset)
            want = np_alg.gen(j).commutator(np_alg.gen(i))
            if not (got - want).is_zero():
                rep.add_failure(label, repr(got - want))
        return rep

    def check_coproducts(self):
        np_alg = self.np.presentation
        rep = CheckReport(check="contraction-coproducts", algebra="nullplane",
                          order=self.order)
        for ni in range(6):
            si, d, c = self.scale[ni]
            name = np_alg.generators[ni]
            terms = {}
            try:
                for ((w1, w2), k), coeff in self.so22.hopf.delta[si].terms.items():
                    (m1, f1), (m2, f2) = self._map_word(w1), self._map_word(w2)
                    add_term(terms, ((m1, m2), k), self._map_term(coeff, k) * c * f1 * f2)
            except ValueError:
                rep.add_failure(f"Delta({name})", "image word needed reordering")
                continue
            powers = {key: self.eps_power(d, key[0][0] + key[0][1], key[1]) for key in terms}
            poles = self.pole_terms(powers)
            if poles:
                rep.add_failure(f"Delta({name})", f"eps poles: {poles}")
                continue
            got_t = TensorElement(np_alg, 2, {key: cv for key, cv in terms.items()
                                              if powers[key] == 0})
            want = self.np.hopf.delta[ni]
            if not (got_t - want).is_zero():
                rep.add_failure(f"Delta({name})", repr(got_t - want))
        return rep

    def check_casimirs(self):
        """M_q^2 = lim -eps^2 C1_q and L_q = (1/2) lim eps C2_q."""
        rep = CheckReport(check="contraction-casimirs", algebra="nullplane",
                          order=self.order)
        so_env = so22_structure_env(self.so22.presentation)
        env = {tag: self.map_element(e, self.alg) for tag, e in so_env.items()}
        c1q = eval_recipe(SO22_C1Q_RECIPE, env)
        c2q = eval_recipe(SO22_C2Q_RECIPE, env)
        half = FieldElem(rat(1, 2))
        # the mapped recipes have eps offset 0; the prefactor eps^shift sets it
        for label, raw, shift, scalar, target in (
                ("M_q2", c1q, 2, FieldElem(-1), self.np.casimirs["M_q2"]),
                ("L_q", c2q, 1, half, self.np.casimirs["L_q"])):
            scaled = raw * scalar
            poles = self.pole_terms(self._powers(scaled, shift))
            if poles:
                # report the eps valuation that would have worked
                worst = min(m for _, m in poles)
                rep.add_failure(label, f"eps poles: {poles}; "
                                       f"stated prefactor off by eps^{-worst}")
                continue
            got = self.eps0_element(scaled, shift)
            if not (got - target).is_zero():
                rep.add_failure(label, repr(got - target))
        return rep

    def check_classical_compatibility(self):
        """eps^0 then w -> 0 of each contracted bracket is the classical table."""
        from .algebras import classical_bracket
        np_alg = self.np.presentation
        rep = CheckReport(check="contraction-classical", algebra="nullplane",
                          order=self.order)
        for (j, i), comm in self._rule_commutators.items():
            x, y = np_alg.generators[j], np_alg.generators[i]
            got = self.eps0_element(comm, self.rule_offset(j, i))
            if got is None:
                rep.add_failure(f"[{x},{y}]", "eps poles")
                continue
            got = got.classical_limit()
            want = np_alg.zero()
            for g, c in classical_bracket(x, y).items():
                want = want + np_alg.gen(g) * c
            if not (got - want.classical_limit()).is_zero():
                rep.add_failure(f"[{x},{y}]", repr(got))
        return rep


def contract_so22(order):
    """Run the full contraction suite; returns the list of reports, each with
    its own measured time."""
    c = Contraction(order)
    return timed_reports(c.check_commutators, c.check_coproducts, c.check_casimirs,
                         c.check_classical_compatibility)
