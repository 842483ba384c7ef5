"""Commutative polynomial toolbox: gcd, Groebner closure, Laurent coefficients."""

import random
from fractions import Fraction

import pytest

from hopf_forge.coeff import FE_ONE, FE_ZERO, FieldElem, rat
from hopf_forge.ratfunc import (Laurent, MAX_DEGREE, PolyRing, Polynomial,
                                _divides as _divides_kernel, _exp_lcm, _monomial_gcd_part,
                                groebner, leads as prepared_leads, poly_gcd,
                                reduce_poly)

R3 = PolyRing(("x", "y", "z"))


def rand_poly(rng, ring=R3, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in ring.vars)
        terms[ring.pack(e)] = FieldElem(rat(rng.randint(-5, 5), rng.randint(1, 3)))
    return Polynomial(ring, terms)


def _exps(p):
    """{exponent tuple: coefficient} of a polynomial."""
    return {p.ring.unpack(m): c for m, c in p.terms.items()}


def _from_exps(ring, terms):
    return Polynomial(ring, {ring.pack(e): c for e, c in terms.items()})


def to_sympy(p, xs):
    import sympy
    out = 0
    for e, c in _exps(p).items():
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
        assert R3.unpack(p.leading()[0]) == (0, 0, 3)

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

    def test_power_stops_before_the_last_square(self):
        ring = PolyRing(("x",))
        # x^16384 fits the field; one more square would be x^32768, which does not
        assert ring.var("x") ** 16384 == ring.monomial((16384,))

    def test_power_is_repeated_product(self):
        p = rand_poly(random.Random(12))
        want = R3.one()
        for n in range(10):
            assert p ** n == want, n
            want = want * p

    def test_negative_power_is_an_error(self):
        x = R3.var("x")
        with pytest.raises(ValueError, match="negative exponent"):
            x ** -1


class TestGroebner:
    def test_reduction_detects_membership(self):
        x, y = R3.var("x"), R3.var("y")
        basis = groebner([x * x - 1, y - x])
        assert reduce_poly(y * y - 1, prepared_leads(basis)).is_zero()
        assert not reduce_poly(x + 1, prepared_leads(basis)).is_zero()

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

    def test_seeded_orthogonality_basis_is_that_of_the_six_quadrics(self):
        from hopf_forge.repfrt import orthogonality_groebner, orthogonality_quadrics
        # the reference: Buchberger from the six L eta L^T = eta quadrics alone
        assert list(orthogonality_groebner()) == groebner(orthogonality_quadrics())

    def test_transposed_orthogonality_lies_in_ideal(self):
        # L eta L^T = eta forces L^T eta L = eta as well
        from hopf_forge.repfrt import RING12, lvar, ideal_reduce, orthogonality_quadrics, ETA
        want = []
        for mu in range(3):
            for rho in range(mu, 3):
                q = RING12.constant(FieldElem(-ETA[mu] if mu == rho else 0))
                for nu in range(3):
                    q = q + lvar(nu, mu) * lvar(nu, rho) * FieldElem(ETA[nu])
                assert ideal_reduce(q).is_zero()
                want.append(q)
        assert orthogonality_quadrics(transposed=True) == want


# -- reference: Buchberger's algorithm without pair criteria --------------------

def _grlex(e):
    return (sum(e), e)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _lead(p):
    return max(_exps(p), key=_grlex)


def reference_reduce(p, basis):
    """Full normal form: cancel the grlex-largest reducible term, re-scanning
    every term and every leading term on each step."""
    lead = [(_lead(b), _exps(b)) for b in basis if not b.is_zero()]
    remainder, work = {}, _exps(p)
    while work:
        e = max(work, key=_grlex)
        c = work.pop(e)
        if c.is_zero():
            continue
        for le, bt in lead:
            if _divides(le, e):
                q = c / bt[le]
                for be, bc in bt.items():
                    if be != le:
                        ne = tuple(x + y - z for x, y, z in zip(be, e, le))
                        work[ne] = work.get(ne, FE_ZERO) - q * bc
                break
        else:
            remainder[e] = c
    return _from_exps(p.ring, remainder)


def reference_groebner(gens):
    """Reduced grlex Groebner basis: every S-pair but the coprime ones is
    reduced, then the basis is minimalized, tail-reduced and sorted."""
    import heapq

    def monic(p):
        return p * _exps(p)[_lead(p)].inverse()

    basis = [monic(g) for g in gens if not g.is_zero()]
    lead = [_lead(b) for b in basis]
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
            lead.append(_lead(r))
            for i in range(len(basis) - 1):
                heapq.heappush(heap, (sum(map(max, lead[i], lead[-1])), i, len(basis) - 1))
    keep = [b for i, b in enumerate(basis)
            if not any(_divides(lead[j], lead[i]) and (j < i or lead[j] != lead[i])
                       for j in range(len(basis)) if j != i)]
    out = [monic(reference_reduce(b, keep[:i] + keep[i + 1:])) for i, b in enumerate(keep)]
    return sorted(out, key=lambda q: _grlex(_lead(q)))


def assert_reduced_basis_of(basis, gens):
    """``basis`` is a reduced Groebner basis that contains every generator:
    monic, sorted by leading monomial, no leading monomial divides a term of
    another member, and every generator reduces to zero."""
    leads = [p.ring.unpack(p.leading()[0]) for p in basis]
    assert leads == sorted(leads, key=_grlex)
    for i, p in enumerate(basis):
        assert p.leading()[1] == FE_ONE
        for j, q in enumerate(basis):
            if i != j:
                assert not any(_divides(leads[i], e) for e in _exps(q)), (p, q)
    for g in gens:
        assert reduce_poly(g, prepared_leads(basis)).is_zero(), g


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
            assert reduce_poly(p, prepared_leads(basis)) == reference_reduce(p, basis)

    def test_prepared_orthogonality_leads_match_reference(self):
        from hopf_forge.repfrt import RING12, orthogonality_groebner, orthogonality_leads
        basis = list(orthogonality_groebner())
        rng = random.Random(23)
        for _ in range(25):
            p = rand_poly(rng, RING12, max_terms=6, max_deg=2)
            assert reduce_poly(p, orthogonality_leads()) == reference_reduce(p, basis)


# -- Laurent coefficients against sympy -----------------------------------------

RL = PolyRing(("p_plus", "p_1", "m_q2"))


def rand_laurent(rng):
    return Laurent(rand_poly(rng, RL), rng.randint(0, 3))


def laurent_to_sympy(f, xs):
    return to_sympy(f.num, xs) / xs[0] ** f.shift


def canonical(f):
    """The invariant: shift 0, or some term of the numerator is free of p_plus."""
    return f.shift == 0 or any(RL.unpack(m)[0] == 0 for m in f.num.terms)


class TestLaurent:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_operations_against_sympy(self, seed):
        sympy = pytest.importorskip("sympy")
        xs = sympy.symbols(RL.vars)
        rng = random.Random(seed)
        shifts = set()
        for _ in range(15):
            a, b = rand_laurent(rng), rand_laurent(rng)
            shifts.update((a.shift, b.shift))
            sa, sb = laurent_to_sympy(a, xs), laurent_to_sympy(b, xs)
            cases = [(a + b, sa + sb), (a - b, sa - sb), (a * b, sa * sb),
                     (a * 3, 3 * sa), (-a, -sa)]
            cases += [(a.derivative(v), sympy.diff(sa, x)) for v, x in zip(RL.vars, xs)]
            for got, want in cases:
                assert canonical(got), got
                assert sympy.cancel(laurent_to_sympy(got, xs) - want) == 0, (a, b, got)
        assert shifts == {0, 1, 2, 3}

    def test_canonical_form_is_unique(self):
        rng = random.Random(5)
        x = RL.var("p_plus")
        for _ in range(20):
            f = rand_laurent(rng)
            for k in range(3):
                g = Laurent(f.num * x ** k, f.shift + k)
                assert (g.num, g.shift) == (f.num, f.shift)
                assert g == f and hash(g) == hash(f)
        assert (Laurent(x * x, 3).num, Laurent(x * x, 3).shift) == (RL.one(), 1)
        assert Laurent(RL.zero(), 2).shift == 0
        with pytest.raises(ValueError, match="negative shift"):
            Laurent(RL.one(), -1)

    def test_repr_is_the_reduced_fraction(self):
        x, y, m = (RL.var(v) for v in RL.vars)
        half = FieldElem(rat(1, 2))
        assert repr(Laurent((y * y + m) * half, 1)) == \
            "((1/2)*p_1^2 + (1/2)*m_q2)/((1)*p_plus)"
        assert repr(Laurent(y + 1, 2)) == "((1)*p_1 + (1))/((1)*p_plus^2)"
        assert repr(Laurent(x * y, 1)) == "(1)*p_1"
        assert repr(Laurent(RL.zero(), 3)) == "0"


class TestRationalFunction:
    """Laurent as a rational function: its denominator is the monic p_plus**shift."""

    def test_canonical_monic_denominator(self):
        x = RL.var("p_plus")
        half = FieldElem(rat(1, 2))
        f = Laurent(RL.one() * half, 1)
        assert (f.num, f.shift) == (RL.one() * half, 1)
        assert repr(f) == "((1/2))/((1)*p_plus)"
        assert Laurent(x * 2, 2) == Laurent(RL.one() * 2, 1)

    def test_reduction(self):
        x, y = RL.var("p_plus"), RL.var("p_1")
        f = Laurent((x + y) * x, 2)
        assert (f.num, f.shift) == (x + y, 1)
        assert f == Laurent(x + y, 1)
        assert Laurent(x * x * y, 1) == Laurent(x * y)

    def test_arithmetic(self):
        x, y = RL.var("p_plus"), RL.var("p_1")
        f = Laurent(y, 1)
        assert f * Laurent(x * x * 2) == Laurent(x * y * 2)
        assert f + Laurent(x) == Laurent(x * x + y, 1)
        assert f + f == Laurent(y * 2, 1)

    def test_derivative_quotient_rule(self):
        x, y = RL.var("p_plus"), RL.var("p_1")
        f = Laurent(y, 1)
        assert f.derivative("p_plus") == Laurent(-y, 2)
        assert f.derivative("p_1") == Laurent(RL.one(), 1)
        assert f.derivative("m_q2").is_zero()
        # (x y + 1) / x^2: the x y term lowers the shift of its derivative
        assert Laurent(x * y + 1, 2).derivative("p_plus") == Laurent(-y * x - 2, 3)

    def test_denominator_never_zero(self):
        with pytest.raises(ValueError, match="negative shift"):
            Laurent(RL.one(), -1)
        for shift in range(4):
            assert Laurent(RL.zero(), shift).shift == 0


# -- the shift arithmetic against the general quotient rule ---------------------

def fraction(f):
    """``f`` as a (numerator, denominator) pair of polynomials."""
    return f.num, RL.var("p_plus") ** f.shift


def general_add(a, b):
    (an, ad), (bn, bd) = fraction(a), fraction(b)
    return an * bd + bn * ad, ad * bd


def general_sub(a, b):
    (an, ad), (bn, bd) = fraction(a), fraction(b)
    return an * bd - bn * ad, ad * bd


def general_mul(a, b):
    (an, ad), (bn, bd) = fraction(a), fraction(b)
    return an * bn, ad * bd


def general_derivative(a, name):
    n, d = fraction(a)
    return n.derivative(name) * d - n * d.derivative(name), d * d


def equal_fractions(f, nd):
    """``f == n / d`` by cross-multiplication."""
    n, d = nd
    fn, fd = fraction(f)
    return fn * d == n * fd


def shift_cases(seed, count=12):
    """Operand pairs with equal positive shifts, with shift 0 and with
    unequal shifts, ``count`` of each kind."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        s = rng.randint(1, 3)
        a, b = Laurent(rand_poly(rng, RL), s), Laurent(rand_poly(rng, RL), s)
        # a numerator divisible by p_plus lowers its shift; count only pairs
        # whose shifts stay equal
        if a.shift == b.shift > 0:
            out.append(("equal", a, b))
    for _ in range(count):
        out.append(("zero", Laurent(rand_poly(rng, RL)), Laurent(rand_poly(rng, RL))))
    for _ in range(count):
        a, b = Laurent(rand_poly(rng, RL), 1), Laurent(rand_poly(rng, RL), 3)
        out.append(("unequal", a, b))
    return out


class TestRationalFunctionFastPaths:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_agree_with_the_general_quotient_rule(self, seed):
        kinds = set()
        for kind, a, b in shift_cases(seed):
            kinds.add(kind)
            if kind == "zero":
                assert a.shift == b.shift == 0
            assert equal_fractions(a + b, general_add(a, b)), (kind, a, b)
            assert equal_fractions(a - b, general_sub(a, b)), (kind, a, b)
            assert equal_fractions(a * b, general_mul(a, b)), (kind, a, b)
            for got in (a + b, a - b, a * b):
                assert canonical(got), (kind, a, b, got)
            for v in RL.vars:
                got = a.derivative(v)
                assert equal_fractions(got, general_derivative(a, v)), (kind, a, v)
                assert canonical(got), (kind, a, v, got)
        assert kinds == {"equal", "zero", "unequal"}

    def test_shared_denominator_sum_is_reduced(self):
        x, y = RL.var("p_plus"), RL.var("p_1")
        a, b = Laurent(x + y, 2), Laurent(-y, 2)
        assert a.shift == b.shift == 2
        got = a + b
        assert (got.num, got.shift) == (RL.one(), 1)
        assert equal_fractions(got, general_add(a, b))

    def test_cancelling_sum_has_denominator_one(self):
        x, y = RL.var("p_plus"), RL.var("p_1")
        for shift in (2, 0):
            a = Laurent(x * y + y, shift)
            for got in (a + (-a), a - a, a * 0):
                assert got.is_zero() and got.shift == 0
            assert equal_fractions(a - a, general_sub(a, a))


# -- the packed monomial format against exponent tuples ------------------------

PACKED_RINGS = [PolyRing(tuple(f"v{i}" for i in range(n))) for n in (3, 12, 18)]


def rand_exps(rng, n, total=MAX_DEGREE):
    """Random exponents summing to at most ``total``; one field in four is
    pushed towards the 15-bit limit so that the guard bits are exercised."""
    e = [rng.randint(0, 3) for _ in range(n)]
    if rng.random() < 0.25:
        e[rng.randrange(n)] = rng.randint(0, total - sum(e))
    return tuple(e)


def rand_packed_poly(rng, ring, max_terms=5, total=40):
    return Polynomial(ring, {ring.pack(rand_exps(rng, ring.nvars, total)):
                             FieldElem(rng.randint(-9, 9) or 1, rng.randint(-2, 2))
                             for _ in range(rng.randint(1, max_terms))})


def pairs(rng, n, count=300, total=MAX_DEGREE // 2):
    """Exponent pairs; every third second member is the first one plus a
    random tuple, so that divisibility holds often enough to be tested."""
    out = []
    for k in range(count):
        a = rand_exps(rng, n, total)
        b = rand_exps(rng, n, total)
        if k % 3 == 0:
            b = tuple(x + min(y, 2) for x, y in zip(a, b))
        out.append((a, b))
    return out


@pytest.mark.parametrize("ring", PACKED_RINGS, ids=lambda r: f"{r.nvars}vars")
class TestPackedMonomials:
    def test_pack_unpack_round_trip(self, ring):
        rng = random.Random(ring.nvars)
        for _ in range(300):
            e = rand_exps(rng, ring.nvars)
            assert ring.unpack(ring.pack(e)) == e
        top = (0,) * (ring.nvars - 1) + (MAX_DEGREE,)
        assert ring.unpack(ring.pack(top)) == top

    def test_int_order_is_graded_lex(self, ring):
        rng = random.Random(100 + ring.nvars)
        exps = [rand_exps(rng, ring.nvars) for _ in range(300)]
        exps += [tuple(rng.randint(0, 2) for _ in range(ring.nvars)) for _ in range(300)]
        assert sorted(exps, key=ring.pack) == sorted(exps, key=_grlex)
        for _ in range(50):
            p = rand_packed_poly(rng, ring)
            assert ring.unpack(p.leading()[0]) == _lead(p)

    def test_product(self, ring):
        rng = random.Random(200 + ring.nvars)
        for a, b in pairs(rng, ring.nvars):
            got = ring.monomial(a) * ring.monomial(b)
            assert got.terms == {ring.pack(tuple(x + y for x, y in zip(a, b))): FE_ONE}
        for _ in range(30):
            p, q = rand_packed_poly(rng, ring), rand_packed_poly(rng, ring)
            want = {}
            for e1, c1 in _exps(p).items():
                for e2, c2 in _exps(q).items():
                    e = tuple(x + y for x, y in zip(e1, e2))
                    want[e] = want.get(e, FE_ZERO) + c1 * c2
            assert p * q == _from_exps(ring, want)

    def test_divisibility(self, ring):
        rng = random.Random(300 + ring.nvars)
        seen = set()
        for a, b in pairs(rng, ring.nvars):
            for x, y in ((a, b), (b, a)):
                want = _divides(x, y)
                got = _divides_kernel(ring.pack(x), ring.pack(y), ring.guard)
                assert got == want, (x, y)
                seen.add(want)
        assert seen == {True, False}

    def test_lcm(self, ring):
        rng = random.Random(400 + ring.nvars)
        for a, b in pairs(rng, ring.nvars):
            want = tuple(map(max, a, b))
            got = _exp_lcm(ring, ring.pack(a), ring.pack(b))
            assert ring.unpack(got) == want
            assert got >> ring.dshift == sum(want)

    def test_monomial_gcd_part(self, ring):
        rng = random.Random(500 + ring.nvars)
        for _ in range(100):
            mono = ring.monomial(rand_exps(rng, ring.nvars, 60))
            other = rand_packed_poly(rng, ring, max_terms=4, total=60)
            want = _lead(mono)
            for e in _exps(other):
                want = tuple(map(min, want, e))
            for f, g in ((mono, other), (other, mono)):
                assert _monomial_gcd_part(f, g) == ring.monomial(want)

    def test_derivative(self, ring):
        rng = random.Random(600 + ring.nvars)
        for _ in range(30):
            p = rand_packed_poly(rng, ring)
            for i, v in enumerate(ring.vars):
                want = {}
                for e, c in _exps(p).items():
                    if e[i]:
                        want[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
                assert p.derivative(v) == _from_exps(ring, want)

    def test_product_beyond_the_field_width_raises(self, ring):
        half = ring.monomial((2 ** 14,) + (0,) * (ring.nvars - 1))
        other = ring.monomial((0,) * (ring.nvars - 1) + (2 ** 14,))
        for p, q in ((half, half), (half, other), (half + ring.one(), other * 3)):
            with pytest.raises(OverflowError):
                p * q
        below = ring.monomial((2 ** 14 - 1,) + (0,) * (ring.nvars - 1))
        assert half * below == ring.monomial((MAX_DEGREE,) + (0,) * (ring.nvars - 1))
        with pytest.raises(OverflowError):
            ring.pack((2 ** 15,) + (0,) * (ring.nvars - 1))
        with pytest.raises(ValueError):
            ring.pack((-1, 2) + (0,) * (ring.nvars - 2))


# -- scalar operands and zero-free results ----------------------------------------

class TestScalarOperands:
    """int, Fraction and FieldElem act as constants; anything else is a TypeError."""

    SCALARS = (3, Fraction(1, 2), FieldElem(rat(-2, 3), 1))

    @pytest.mark.parametrize("c", SCALARS)
    def test_polynomial_with_a_scalar(self, c):
        x = R3.var("x")
        k = R3.constant(c)
        assert x * c == c * x == x * k
        assert x + c == c + x == x + k
        assert x - c == x - k
        assert c - x == k - x
        assert (x * 0).is_zero() and (x * Fraction(0)).is_zero()

    @pytest.mark.parametrize("c", SCALARS)
    def test_laurent_with_a_scalar(self, c):
        f = Laurent(RL.var("p_1"), 1)
        k = Laurent(RL.constant(c))
        assert f * c == c * f == f * k
        assert f + c == c + f == f + k
        assert f - c == f - k
        assert c - f == k - f
        assert Laurent(RL.var("p_plus")) + 1 == Laurent(RL.var("p_plus") + 1)

    @pytest.mark.parametrize("other", ("a", 1.5, None))
    def test_other_operands_raise_type_error(self, other):
        for value in (R3.var("x"), Laurent(RL.var("p_1"), 1)):
            for op in (lambda a, b: a + b, lambda a, b: b + a, lambda a, b: a - b,
                       lambda a, b: b - a, lambda a, b: a * b, lambda a, b: b * a):
                with pytest.raises(TypeError):
                    op(value, other)
        with pytest.raises(TypeError):
            Laurent(RL.var("p_1")) * RL.var("p_1")


def _zero_free_polynomial(p):
    """No zero coefficient, and equal to itself rebuilt through the filtering constructor."""
    return (all(not c.is_zero() for c in p.terms.values())
            and Polynomial(p.ring, dict(p.terms)) == p)


def _zero_free_laurent(f):
    return (_zero_free_polynomial(f.num) and canonical(f)
            and Laurent(Polynomial(f.num.ring, dict(f.num.terms)), f.shift) == f)


class TestZeroFreeResults:
    """Results built without the constructor's filter still hold no zero coefficient."""

    @pytest.mark.parametrize("seed", range(4))
    def test_polynomial_operations(self, seed):
        rng = random.Random(700 + seed)
        for _ in range(25):
            p, q = rand_poly(rng), rand_poly(rng)
            r = p + q * FieldElem(rat(rng.randint(1, 3), 2))
            results = [p + q, p - q, p * q, -p, p - p, p + (-p), r - q * 2,
                       p * 0, p * FieldElem(rat(-3, 4), 1), p + 0]
            results += [p.derivative(v) for v in R3.vars]
            for got in results:
                assert _zero_free_polynomial(got), got
        x = R3.var("x")
        assert (x + 1) - (x + 1) == R3.zero()
        assert ((x + 1) - x).terms == {R3.pack((0, 0, 0)): FE_ONE}

    @pytest.mark.parametrize("seed", range(4))
    def test_laurent_operations(self, seed):
        rng = random.Random(800 + seed)
        for _ in range(25):
            a, b = rand_laurent(rng), rand_laurent(rng)
            results = [a + b, a - b, a * b, -a, a - a, a + (-a), a * 0, a * 2]
            results += [a.derivative(v) for v in RL.vars]
            for got in results:
                assert _zero_free_laurent(got), got
        # sums that cancel the top power of p_plus
        x, y = RL.var("p_plus"), RL.var("p_1")
        s = Laurent(x + y, 1) + Laurent(-y, 1)
        assert (s.num, s.shift) == (RL.one(), 0) and _zero_free_laurent(s)
        s = Laurent(y * x + 1, 2) - Laurent(RL.one(), 2)
        assert (s.num, s.shift) == (y, 1) and _zero_free_laurent(s)
