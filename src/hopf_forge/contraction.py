"""Contraction of the quantum so(2,2) onto the null-plane Poincare algebra.

The contraction rescales the so(2,2) generators by exact powers of a formal
parameter eps (with 1/sqrt(2) factors) and substitutes z = sqrt(2)*eps*w.  We
track eps symbolically: the scalar of each graded term (word, w-power) becomes
a finite Laurent polynomial in eps over Q(sqrt 2).  The engine then asserts that

* no structure constant, coproduct or scaled Casimir keeps a negative eps
  power (a pole would mean a wrong scale assignment), and
* the eps^0 slice reproduces the null-plane preset exactly.
"""

from __future__ import annotations

from .coeff import Domain, FE_ONE, FE_SQRT2, FieldElem, rat
from .ncalg import AlgebraPresentation, NCElement, TensorElement, add_term
from .algebras import (SO22_C1Q_RECIPE, SO22_C2Q_RECIPE, eval_recipe, preset,
                       so22_structure_env)
from .report import CheckReport


class EpsLaurent:
    """Finite Laurent polynomial sum_k eps^k * c_k with c_k in Q(sqrt 2)."""

    __slots__ = ("slices",)

    def __init__(self, slices):
        self.slices = {k: s for k, s in slices.items() if not s.is_zero()}

    def is_zero(self):
        return not self.slices

    def min_eps(self):
        return min(self.slices) if self.slices else None

    def slice(self, k):
        return self.slices.get(k)

    def __eq__(self, other):
        if not isinstance(other, EpsLaurent):
            return NotImplemented
        return self.slices == other.slices

    def __hash__(self):
        return hash(frozenset(self.slices.items()))

    def __add__(self, other):
        out = dict(self.slices)
        for k, s in other.slices.items():
            add_term(out, k, s)
        return EpsLaurent(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return EpsLaurent({k: -s for k, s in self.slices.items()})

    def __mul__(self, other):
        if isinstance(other, EpsLaurent):
            out = {}
            for k1, s1 in self.slices.items():
                for k2, s2 in other.slices.items():
                    add_term(out, k1 + k2, s1 * s2)
            return EpsLaurent(out)
        # scalar (FieldElem / int)
        return EpsLaurent({k: s * other for k, s in self.slices.items()})

    __rmul__ = __mul__

    def shift_eps(self, d):
        return EpsLaurent({k + d: s for k, s in self.slices.items()})

    def __repr__(self):
        if not self.slices:
            return "0"
        return " + ".join(f"eps^{k}*({self.slices[k]})" for k in sorted(self.slices))


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


EPS_DOMAIN = Domain(EpsLaurent({}), EpsLaurent({0: FE_ONE}), "eps-laurent[Q(sqrt2)]")


class Contraction:
    """Finite-eps image of the so(2,2) preset in null-plane variables."""

    def __init__(self, order):
        self.order = order
        self.so22 = preset("so22", order)
        self.np = preset("nullplane", order)
        so_alg = self.so22.presentation
        np_alg = self.np.presentation
        # so22 generator index -> (np index, eps power, inverse scale)
        self.gen_image = {}
        for np_name, (so_name, d, c) in CONTRACTION_MAP.items():
            self.gen_image[so_alg.index[so_name]] = (
                np_alg.index[np_name], -d, c.inverse())
        self.scale = {np_alg.index[n]: (so_alg.index[s], d, c)
                      for n, (s, d, c) in CONTRACTION_MAP.items()}
        self.alg = self._build_presentation()

    # -- coefficient and element transport -----------------------------------

    @staticmethod
    def _map_term(c, k):
        """The eps scalar of c*z^k with z = sqrt(2)*eps*w, which keeps the
        power k of w: 2^(k/2) c eps^k."""
        return EpsLaurent({k: c * (FE_SQRT2 ** k)})

    def map_element(self, x, target=None):
        """so(2,2) element -> eps-tracked null-plane element.

        Requires every image word to stay normal ordered (true for all the
        structure functions this engine transports; products that would need
        reordering are formed inside the eps algebra instead).
        """
        target = target or self.alg
        out = {}
        for (w, k), c in x.terms.items():
            eps_shift = 0
            factor = FE_ONE
            img = []
            for g, e in w:
                ni, d, cf = self.gen_image[g]
                img.append((ni, e))
                eps_shift += d * e
                factor = factor * (cf ** e)
            if any(a[0] >= b[0] for a, b in zip(img, img[1:])):
                raise ValueError("image word needs reordering; build it in the eps algebra")
            add_term(out, (tuple(img), k),
                     (self._map_term(c, k) * factor).shift_eps(eps_shift))
        return NCElement(target, out)

    def _check_image_order(self, x):
        for w, _ in x.terms:
            mapped = [self.gen_image[g][0] for g, _ in w]
            if mapped != sorted(mapped):
                return False
        return True

    # -- the finite-eps presentation ------------------------------------------

    def _build_presentation(self):
        np_alg = self.np.presentation
        alg = AlgebraPresentation("nullplane-eps", np_alg.generators, "w",
                                  self.order, domain=EPS_DOMAIN)
        so_alg = self.so22.presentation
        one = alg.domain.one
        rules = {}
        self._rule_commutators = {}
        for j in range(6):
            for i in range(j):
                sj, dj, cj = self.scale[j]
                si, di, ci = self.scale[i]
                comm_so = so_alg.gen(sj).commutator(so_alg.gen(si))
                if not self._check_image_order(comm_so):
                    raise RuntimeError("unexpected word order in contracted rule")
                comm = self.map_element(comm_so, alg) * (cj * ci)
                comm = NCElement(alg, {key: c.shift_eps(dj + di)
                                       for key, c in comm.terms.items()})
                self._rule_commutators[(j, i)] = comm
                rules[(j, i)] = alg.element({(((i, 1), (j, 1)), 0): one}) + comm
        alg.set_rules(rules)
        return alg

    def eps0_element(self, x, target=None):
        """The eps^0 slice as a plain null-plane element; None if poles remain."""
        target = target or self.np.presentation
        out = {}
        for key, c in x.terms.items():
            if c.min_eps() is not None and c.min_eps() < 0:
                return None
            s = c.slice(0)
            if s is not None:
                out[key] = s
        return NCElement(target, out)

    @staticmethod
    def pole_terms(terms):
        """(word, lowest eps power) of each word with a negative eps power."""
        poles = {}
        for (w, _), c in terms.items():
            m = c.min_eps()
            if m is not None and m < 0:
                poles[w] = min(m, poles.get(w, m))
        return list(poles.items())

    # -- checks ------------------------------------------------------------------

    def check_commutators(self):
        np_alg = self.np.presentation
        rep = CheckReport(check="contraction-commutators", algebra="nullplane",
                          order=self.order)
        for (j, i), comm in self._rule_commutators.items():
            label = f"[{np_alg.generators[j]},{np_alg.generators[i]}]"
            poles = self.pole_terms(comm.terms)
            if poles:
                rep.add_failure(label, f"eps poles: {poles}")
                continue
            got = self.eps0_element(comm)
            want = np_alg.gen(j).commutator(np_alg.gen(i))
            if not (got - want).is_zero():
                rep.add_failure(label, repr(got - want))
        return rep

    def check_coproducts(self):
        np_alg = self.np.presentation
        so_alg = self.so22.presentation
        rep = CheckReport(check="contraction-coproducts", algebra="nullplane",
                          order=self.order)
        for ni in range(6):
            si, d, c = self.scale[ni]
            name = np_alg.generators[ni]
            t = self.so22.hopf.delta[si]
            terms = {}
            ok = True
            for ((w1, w2), k), coeff in t.terms.items():
                for w in (w1, w2):
                    mapped = [self.gen_image[g][0] for g, _ in w]
                    if mapped != sorted(mapped):
                        ok = False
                if not ok:
                    break
                e1 = self.map_element(NCElement(so_alg, {(w1, 0): so_alg.domain.one}), self.alg)
                e2 = self.map_element(NCElement(so_alg, {(w2, 0): so_alg.domain.one}), self.alg)
                base = (self._map_term(coeff, k) * c).shift_eps(d)
                for (mw1, k1), c1 in e1.terms.items():
                    for (mw2, k2), c2 in e2.terms.items():
                        add_term(terms, ((mw1, mw2), k + k1 + k2), base * c1 * c2)
            if not ok:
                rep.add_failure(f"Delta({name})", "image word needed reordering")
                continue
            poles = self.pole_terms(terms)
            if poles:
                rep.add_failure(f"Delta({name})", f"eps poles: {poles}")
                continue
            got_t = TensorElement(np_alg, 2, {key: cv.slice(0) for key, cv in terms.items()
                                              if cv.slice(0) is not None})
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
        for label, raw, shift, scalar, target in (
                ("M_q2", c1q, 2, FieldElem(-1), self.np.casimirs["M_q2"]),
                ("L_q", c2q, 1, half, self.np.casimirs["L_q"])):
            scaled = NCElement(self.alg, {key: (c * scalar).shift_eps(shift)
                                          for key, c in raw.terms.items()})
            poles = self.pole_terms(scaled.terms)
            if poles:
                # report the eps valuation that would have worked
                worst = min(m for _, m in poles)
                rep.add_failure(label, f"eps poles: {poles}; "
                                       f"stated prefactor off by eps^{-worst}")
                continue
            got = self.eps0_element(scaled)
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
            got = self.eps0_element(comm)
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
    """Run the full contraction suite; returns the list of reports."""
    c = Contraction(order)
    return [c.check_commutators(), c.check_coproducts(), c.check_casimirs(),
            c.check_classical_compatibility()]
