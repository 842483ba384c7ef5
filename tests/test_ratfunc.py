"""Commutative polynomial toolbox: gcd, Groebner closure, rational functions."""

import random

import pytest

from hopf_forge.coeff import FE_ONE, FE_ZERO, FieldElem, rat
from hopf_forge.ratfunc import (PolyRing, Polynomial, RationalFunction, groebner,
                                poly_gcd, reduce_poly)

R3 = PolyRing(("x", "y", "z"))


def rand_poly(rng, ring=R3, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in ring.vars)
        terms[e] = FieldElem(rat(rng.randint(-5, 5), rng.randint(1, 3)))
    return Polynomial(ring, terms)


def to_sympy(p, xs):
    import sympy
    out = 0
    for e, c in p.terms.items():
        t = sympy.Rational(int(c.a.numerator), int(c.a.denominator))
        for s, k in zip(xs, e):
            if k:
                t *= s ** k
        out += t
    return sympy.expand(out)


class TestPolynomial:
    def test_arithmetic(self):
        x, y = R3.var("x"), R3.var("y")
        p = (x + y) * (x - y)
        assert p == x * x - y * y

    def test_leading_grlex(self):
        x, y, z = (R3.var(v) for v in "xyz")
        p = x * y + z * z * z
        assert p.leading()[0] == (0, 0, 3)

    def test_derivative(self):
        x, y = R3.var("x"), R3.var("y")
        p = x * x * y + y
        assert p.derivative("x") == x * y * 2

    def test_exact_gcd_of_products(self):
        x, y = R3.var("x"), R3.var("y")
        g = x + y
        a = g * (x - y)
        b = g * (x * x + 1)
        assert poly_gcd(a, b) == g

    def test_monomial_fast_path(self):
        x, y = R3.var("x"), R3.var("y")
        a = x * x * y * 3
        b = x * y * y + x * x * y
        assert poly_gcd(a, b) == x * y

    def test_gcd_vs_sympy(self):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols("x y z")
        rng = random.Random(7)
        for _ in range(15):
            g = rand_poly(rng, max_terms=2, max_deg=1)
            a = rand_poly(rng, max_terms=3, max_deg=2) * g
            b = rand_poly(rng, max_terms=3, max_deg=2) * g
            mine = poly_gcd(a, b)
            theirs = sympy.gcd(to_sympy(a, xs), to_sympy(b, xs))
            # both are defined up to scalars; compare monic-normalized quotients
            q = sympy.simplify(to_sympy(mine, xs) / theirs)
            assert q.is_constant(), (mine, theirs)


class TestGroebner:
    def test_reduction_detects_membership(self):
        x, y = R3.var("x"), R3.var("y")
        basis = groebner([x * x - 1, y - x])
        assert reduce_poly(y * y - 1, basis).is_zero()
        assert not reduce_poly(x + 1, basis).is_zero()

    def test_matches_sympy_on_lorentz_ideal(self):
        sympy = pytest.importorskip("sympy")
        from hopf_forge.repfrt import orthogonality_groebner, orthogonality_quadrics
        gb = orthogonality_groebner()
        names = [f"L{m}{n}" for m in range(3) for n in range(3)]
        xs = sympy.symbols(names + ["a_plus", "a_1", "a_minus"])
        gens = [to_sympy(q, xs) for q in orthogonality_quadrics()]
        G = sympy.groebner(gens, *xs[:9], order="grlex")
        assert all(G.reduce(to_sympy(p, xs))[1] == 0 for p in gb)
        mine = [to_sympy(p, xs) for p in gb]
        for g in G.exprs:
            _, r = sympy.reduced(g, mine, *xs[:9], order="grlex")
            assert sympy.expand(r) == 0

    def test_transposed_orthogonality_lies_in_ideal(self):
        # L eta L^T = eta forces L^T eta L = eta as well
        from hopf_forge.repfrt import RING12, lvar, ideal_reduce, ETA
        for mu in range(3):
            for rho in range(mu, 3):
                q = RING12.constant(FieldElem(-ETA[mu] if mu == rho else 0))
                for nu in range(3):
                    q = q + lvar(nu, mu) * lvar(nu, rho) * FieldElem(ETA[nu])
                assert ideal_reduce(q).is_zero()


# -- reference: Buchberger's algorithm without pair criteria --------------------

def _grlex(e):
    return (sum(e), e)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def reference_reduce(p, basis):
    """Full normal form: cancel the grlex-largest reducible term, re-scanning
    every term and every leading term on each step."""
    lead = [(max(b.terms, key=_grlex), b) for b in basis if not b.is_zero()]
    remainder, work = {}, dict(p.terms)
    while work:
        e = max(work, key=_grlex)
        c = work.pop(e)
        if c.is_zero():
            continue
        for le, b in lead:
            if _divides(le, e):
                q = c / b.terms[le]
                for be, bc in b.terms.items():
                    if be != le:
                        ne = tuple(x + y - z for x, y, z in zip(be, e, le))
                        work[ne] = work.get(ne, FE_ZERO) - q * bc
                break
        else:
            remainder[e] = c
    return Polynomial(p.ring, remainder)


def reference_groebner(gens):
    """Reduced grlex Groebner basis: every S-pair but the coprime ones is
    reduced, then the basis is minimalized, tail-reduced and sorted."""
    import heapq

    def monic(p):
        return p * p.terms[max(p.terms, key=_grlex)].inverse()

    basis = [monic(g) for g in gens if not g.is_zero()]
    lead = [max(b.terms, key=_grlex) for b in basis]
    heap = [(sum(map(max, lead[i], lead[k])), i, k)
            for k in range(len(basis)) for i in range(k)]
    heapq.heapify(heap)
    while heap:
        _, i, j = heapq.heappop(heap)
        l = tuple(map(max, lead[i], lead[j]))
        if l == tuple(a + b for a, b in zip(lead[i], lead[j])):
            continue
        ring = basis[i].ring
        s = (ring.monomial(tuple(a - b for a, b in zip(l, lead[i]))) * basis[i]
             - ring.monomial(tuple(a - b for a, b in zip(l, lead[j]))) * basis[j])
        r = reference_reduce(s, basis)
        if not r.is_zero():
            basis.append(monic(r))
            lead.append(max(r.terms, key=_grlex))
            for i in range(len(basis) - 1):
                heapq.heappush(heap, (sum(map(max, lead[i], lead[-1])), i, len(basis) - 1))
    keep = [b for i, b in enumerate(basis)
            if not any(_divides(lead[j], lead[i]) and (j < i or lead[j] != lead[i])
                       for j in range(len(basis)) if j != i)]
    out = [monic(reference_reduce(b, keep[:i] + keep[i + 1:])) for i, b in enumerate(keep)]
    return sorted(out, key=lambda q: _grlex(max(q.terms, key=_grlex)))


def assert_reduced_basis_of(basis, gens):
    """``basis`` is a reduced Groebner basis that contains every generator:
    monic, sorted by leading monomial, no leading monomial divides a term of
    another member, and every generator reduces to zero."""
    leads = [p.leading()[0] for p in basis]
    assert leads == sorted(leads, key=_grlex)
    for i, p in enumerate(basis):
        assert p.leading()[1] == FE_ONE
        for j, q in enumerate(basis):
            if i != j:
                assert not any(_divides(leads[i], e) for e in q.terms), (p, q)
    for g in gens:
        assert reduce_poly(g, basis).is_zero(), g


def _rescaled_shuffle(polys, seed):
    rng = random.Random(seed)
    out = [p * FieldElem(rat(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5)),
                         rng.randint(-2, 2))
           for p in polys]
    rng.shuffle(out)
    return out


def random_ideal(seed):
    rng = random.Random(seed)
    return [rand_poly(rng, max_terms=4, max_deg=2) for _ in range(3)]


class TestGroebnerOracle:
    """A reduced Groebner basis for a fixed monomial order is unique, so the
    pair criteria must not change a single term of it."""

    @pytest.mark.parametrize("seed", (1, 2, 3, 4))
    def test_orthogonality_ideal_from_shuffled_rescaled_quadrics(self, seed):
        from hopf_forge.repfrt import orthogonality_groebner, orthogonality_quadrics
        gens = _rescaled_shuffle(orthogonality_quadrics(), seed)
        basis = groebner(gens)
        # orthogonality_groebner() itself is pinned to the golden basis
        assert basis == list(orthogonality_groebner())
        assert_reduced_basis_of(basis, gens)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_ideal_matches_reference_and_sympy(self, seed):
        sympy = pytest.importorskip("sympy")
        gens = random_ideal(seed)
        basis = groebner(gens)
        assert basis == reference_groebner(gens)
        assert basis == groebner(_rescaled_shuffle(gens, seed))
        assert_reduced_basis_of(basis, gens)
        xs = sympy.symbols("x y z")
        theirs = sympy.groebner([to_sympy(g, xs) for g in gens], *xs, order="grlex",
                                domain="QQ")
        assert ({sympy.Poly(to_sympy(p, xs), *xs, domain="QQ") for p in basis}
                == set(theirs.polys))

    def test_reference_reduction_agrees(self):
        gens = random_ideal(5)
        basis = groebner(gens)
        rng = random.Random(11)
        for _ in range(20):
            p = rand_poly(rng, max_terms=5, max_deg=4)
            assert reduce_poly(p, basis) == reference_reduce(p, basis)


class TestRationalFunction:
    def test_canonical_monic_denominator(self):
        x = R3.var("x")
        f = RationalFunction(R3.one(), x * 2)
        assert f.den == x
        assert f.num == R3.one() * FieldElem(rat(1, 2))

    def test_reduction(self):
        x, y = R3.var("x"), R3.var("y")
        f = RationalFunction((x + y) * x, x * x)
        assert f == RationalFunction(x + y, x)

    def test_arithmetic_and_inverse(self):
        x, y = R3.var("x"), R3.var("y")
        f = RationalFunction(x, y)
        g = RationalFunction(y, x)
        assert f * g == RationalFunction.from_poly(R3.one())
        assert f + g == RationalFunction(x * x + y * y, x * y)
        assert f + f == RationalFunction(x * 2, y)

    def test_derivative_quotient_rule(self):
        x, y = R3.var("x"), R3.var("y")
        f = RationalFunction(y, x)
        assert f.derivative("x") == RationalFunction(-y, x * x)

    def test_denominator_never_zero(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(R3.one(), R3.zero())
