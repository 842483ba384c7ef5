"""Exact scalar layer: field arithmetic and truncated series."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopf_forge.coeff import (DeformationSeries, FE_ONE, FE_SQRT2, FE_ZERO, FieldElem,
                              NonInvertible, rat)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
field_elems = st.builds(lambda a, b: FieldElem(rat(a.numerator, a.denominator),
                                               rat(b.numerator, b.denominator)),
                        rationals, rationals)


def dense_coeffs(series):
    """The coefficients of a series, one per degree 0..order."""
    terms = dict(series.terms)
    return [terms.get(k, FE_ZERO) for k in range(series.order + 1)]


# -- independent oracle: naive series arithmetic over Fraction -----------------

def brute_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j <= order:
                out[i + j] += x * y
    return out


def brute_shift(coeffs, k, order):
    """Dense param**k * series; k < 0 drops the lowest |k| coefficients."""
    out = [Fraction(0)] * max(k, 0) + list(coeffs[max(-k, 0):])
    return (out + [Fraction(0)] * (order + 1))[: order + 1]


class TestFieldElem:
    def test_inverse_via_conjugate(self):
        x = FieldElem(rat(3, 2), rat(-1, 3))
        assert x * x.inverse() == FE_ONE

    def test_zero_has_no_inverse(self):
        with pytest.raises(NonInvertible):
            FieldElem(0, 0).inverse()

    def test_sqrt2_squares_to_two(self):
        assert FieldElem(0, 1) * FieldElem(0, 1) == FieldElem(2)

    @given(field_elems, field_elems, field_elems)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x

    @given(field_elems)
    @settings(max_examples=40, deadline=None)
    def test_inverse_round_trip(self, x):
        if not x.is_zero():
            assert x * x.inverse() == FE_ONE

    def test_serialization_quad(self):
        x = FieldElem(rat(3, 4), rat(-5, 7))
        assert FieldElem.from_quad(x.as_quad()) == x


# -- the integer-triple scalar against the pair-of-Fractions representation ---
#
# ``Pair`` is a + b*sqrt2 with a, b Fractions, the representation FieldElem
# had before it became a canonical triple (p + q*sqrt2)/d; str and repr are
# that representation's rendering, kept here verbatim.


class Pair:
    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        return Pair(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return Pair(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return Pair(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    def inverse(self):
        n = self.a * self.a - 2 * self.b * self.b
        return Pair(self.a / n, -self.b / n)

    def __pow__(self, n):
        base = self.inverse() if n < 0 else self
        out = Pair(1)
        for _ in range(abs(n)):
            out = out * base
        return out

    def __str__(self):
        a, b = self.a, self.b
        if not b:
            return str(a)
        sq = "sqrt2" if b == 1 else ("-sqrt2" if b == -1 else f"{b}*sqrt2")
        if not a:
            return sq
        return f"{a}+{sq}" if b > 0 else f"{a}{sq}"

    def __repr__(self):
        return f"FieldElem({self.a!s}, {self.b!s})"


def random_rational(rng):
    kind = rng.random()
    if kind < 0.25:
        return Fraction(0)
    if kind < 0.5:
        return Fraction(rng.randint(-9, 9))
    return Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 4, 6, 7, 9, 12, 35)))


def random_pair(rng):
    a = random_rational(rng)
    b = Fraction(0) if rng.random() < 0.4 else random_rational(rng)
    return Pair(a, b)


def random_operand(rng):
    """An int, a Fraction or a FieldElem, with its Pair."""
    kind = rng.random()
    if kind < 0.2:
        n = rng.randint(-7, 7)
        return n, Pair(n)
    if kind < 0.4:
        r = random_rational(rng)
        return r, Pair(r)
    p = random_pair(rng)
    return FieldElem(p.a, p.b), p


def assert_matches(x, ref):
    assert isinstance(x, FieldElem)
    assert (x.a, x.b) == (ref.a, ref.b)
    # canonical triple: positive denominator, coprime, one zero
    assert x.d > 0 and gcd(x.p, x.q, x.d) == 1
    assert (x.p, x.q, x.d) != (0, 0, 1) or x.is_zero()
    assert x.is_zero() == (not ref.a and not ref.b) == (not x)
    assert str(x) == str(ref) and repr(x) == repr(ref)


def cases(seed, n):
    rng = random.Random(seed)
    return [(rng, random_operand(rng), random_operand(rng)) for _ in range(n)]


class TestTripleAgainstPair:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_ring_operations(self, seed):
        for _, (x, px), (y, py) in cases(seed, 400):
            if not isinstance(x, FieldElem) and not isinstance(y, FieldElem):
                x = FieldElem(x)
            assert_matches(x + y, px + py)
            assert_matches(x - y, px - py)
            assert_matches(x * y, px * py)
            assert_matches(-FieldElem(px.a, px.b), Pair(0) - px)

    @pytest.mark.parametrize("seed", [21, 22])
    def test_division_and_inverse(self, seed):
        for _, (x, px), (y, py) in cases(seed, 400):
            if not isinstance(x, FieldElem) and not isinstance(y, FieldElem):
                x = FieldElem(x)
            if py.a or py.b:
                assert_matches(x / y, px * py.inverse())
                if isinstance(y, FieldElem):
                    assert_matches(y.inverse(), py.inverse())
            elif isinstance(y, FieldElem):
                with pytest.raises(NonInvertible):
                    x / y
            else:
                with pytest.raises(ZeroDivisionError):
                    x / y

    @pytest.mark.parametrize("seed", [71, 72])
    def test_products_with_units_and_special_values(self, seed):
        rng = random.Random(seed)
        special = [Pair(0), Pair(1), Pair(-1), Pair(0, 1), Pair(0, -1), Pair(Fraction(1, 2)),
                   Pair(1, 1), Pair(Fraction(1, 2), 1), Pair(0, Fraction(1, 2))]
        pool = special + [random_pair(rng) for _ in range(50)]
        for p in pool:
            x = FieldElem(p.a, p.b)
            for q in pool:
                assert_matches(x * FieldElem(q.a, q.b), p * q)
            # a factor exactly 1 gives the other operand itself
            for one in (FE_ONE, FieldElem(1), FieldElem(Fraction(2, 2), 0)):
                assert x * one == x == one * x
                if x != one:  # when x is 1 too, either 1 may come back
                    assert x * one is x and one * x is x
            assert_matches(x * 1, p)
            assert_matches(1 * x, p)

    def test_powers(self):
        rng = random.Random(31)
        for _ in range(150):
            p = random_pair(rng)
            x = FieldElem(p.a, p.b)
            n = rng.randint(-4, 5)
            if n < 0 and x.is_zero():
                with pytest.raises(NonInvertible):
                    x ** n
            else:
                assert_matches(x ** n, p ** n)

    def test_equality_and_hash_with_rationals(self):
        rng = random.Random(41)
        for _ in range(300):
            r = random_rational(rng)
            x = FieldElem(r)
            assert x == r and r == x and hash(x) == hash(r)
            assert x != r + 1 and FieldElem(r, 1) != r
            if r.denominator == 1:
                n = int(r)
                assert x == n and n == x and hash(x) == hash(n)
                assert {n: "seen"}[x] == "seen"
            assert {r: "seen"}[x] == "seen"

    def test_equal_values_are_equal_triples(self):
        rng = random.Random(51)
        for _ in range(300):
            p = random_pair(rng)
            k = rng.choice((1, 2, 3, -5, 12))
            # the same value reached by a different route
            x = FieldElem(p.a, p.b)
            y = (x * k) / k + FieldElem(p.a) - FieldElem(p.a)
            assert (x.p, x.q, x.d) == (y.p, y.q, y.d) and hash(x) == hash(y)
        assert FieldElem(0) == FieldElem(Fraction(0, 7), 0) == FE_ZERO
        assert (FE_ZERO.p, FE_ZERO.q, FE_ZERO.d) == (0, 0, 1)

    def test_quad_round_trip(self):
        rng = random.Random(61)
        for _ in range(300):
            p = random_pair(rng)
            x = FieldElem(p.a, p.b)
            assert x.as_quad() == [p.a.numerator, p.a.denominator,
                                   p.b.numerator, p.b.denominator]
            assert FieldElem.from_quad(x.as_quad()) == x

    def test_constants(self):
        assert_matches(FE_ZERO, Pair(0))
        assert_matches(FE_ONE, Pair(1))
        assert_matches(FE_SQRT2, Pair(0, 1))
        assert rat(6, -4) == Fraction(-3, 2)

    def test_division_by_zero(self):
        x = FieldElem(rat(1, 3), 2)
        with pytest.raises(ZeroDivisionError):
            x / 0
        with pytest.raises(ZeroDivisionError):
            x / Fraction(0)
        with pytest.raises(NonInvertible):
            x / FE_ZERO
        with pytest.raises(NonInvertible):
            1 / FE_ZERO


class TestOneFrameResults:
    """Sums, products and negations set their canonical triple themselves."""

    @staticmethod
    def operands(seed, n):
        rng = random.Random(seed)
        out = []
        for _ in range(n):
            x, px = random_operand(rng)
            x = x if isinstance(x, FieldElem) else FieldElem(x)
            out.append((x, px))
            if rng.random() < 0.3:  # its negation and its reciprocal: sums and products to 0 and 1
                out.append((-x, Pair(0) - px))
                if px.a or px.b:
                    out.append((x.inverse(), px.inverse()))
        return out

    @pytest.mark.parametrize("seed", [81, 82, 83])
    def test_sums_products_and_negations_are_canonical(self, seed):
        ops = self.operands(seed, 60)
        cancelled = 0
        for x, px in ops:
            assert_matches(-x, Pair(0) - px)
            for y, py in ops:
                s, m = x + y, x * y
                assert_matches(s, px + py)
                assert_matches(m, px * py)
                cancelled += s.is_zero()
                for r in (3, Fraction(-5, 6)):  # rational operands too
                    assert_matches(x + r, px + Pair(r))
                    assert_matches(x * r, px * Pair(r))
        assert cancelled  # the sweep reaches sums that cancel to 0

    @pytest.mark.parametrize("seed", [84, 85])
    def test_a_unit_factor_returns_the_other_factor(self, seed):
        for x, _ in self.operands(seed, 80):
            assert x * FE_ONE is x and FE_ONE * x is x

    def test_a_quotient_equal_to_one_is_fe_one(self):
        x = FieldElem(Fraction(-3, 7), Fraction(5, 2))
        assert FE_ONE / 1 is FE_ONE
        assert FieldElem(3) / 3 is FE_ONE
        assert FieldElem(1).inverse() is FE_ONE
        assert x / x is FE_ONE
        assert FieldElem(-1).inverse() == -1 and FE_SQRT2 / 2 != 1

    @pytest.mark.parametrize("seed", [88, 89])
    def test_every_unit_quotient_is_fe_one(self, seed):
        for x, _ in self.operands(seed, 80):
            if x:
                assert x / x is FE_ONE and x * x.inverse() == 1

    @pytest.mark.parametrize("seed", [86, 87])
    def test_quad_equals_the_fraction_quad(self, seed):
        for x, _ in self.operands(seed, 200):
            a, b = Fraction(x.p, x.d), Fraction(x.q, x.d)
            assert x.as_quad() == [a.numerator, a.denominator, b.numerator, b.denominator]
        assert FE_ZERO.as_quad() == [0, 1, 0, 1]


def test_triple_against_sympy_sqrt2():
    sympy = pytest.importorskip("sympy")
    root = sympy.sqrt(2)

    def sym(v):
        if isinstance(v, FieldElem):
            return sympy.Rational(v.p, v.d) + sympy.Rational(v.q, v.d) * root
        return sympy.Rational(v.numerator, v.denominator)

    def same(x, e):
        return sympy.expand(sym(x) - e) == 0

    for _, (x, _px), (y, _py) in cases(71, 60):
        if not isinstance(x, FieldElem):
            x = FieldElem(x)
        assert same(x + y, sym(x) + sym(y))
        assert same(x - y, sym(x) - sym(y))
        assert same(x * y, sym(x) * sym(y))
        if y:
            assert sympy.expand(sym(x / y) * sym(y) - sym(x)) == 0
        if x:
            assert sympy.expand(sym(x.inverse()) * sym(x) - 1) == 0
            assert sympy.expand(sym(x ** -2) * sym(x) ** 2 - 1) == 0
        assert same(x ** 3, sympy.expand(sym(x) ** 3))
        assert str(sym(x)) == str(sympy.sympify(str(x).replace("sqrt2", "sqrt(2)")))


# -- sparse inputs: mostly-zero lists, monomials, exact cancellation -----------

ORDER = 4
zeros = st.just(Fraction(0))
sparse_lists = st.lists(st.one_of(zeros, zeros, zeros, rationals), min_size=1,
                        max_size=ORDER + 3)
monomials = st.builds(lambda d, c: [Fraction(0)] * d + [c],
                      st.integers(0, ORDER + 2), rationals.filter(bool))
sparse_inputs = st.one_of(sparse_lists, monomials)


def fs(values, order=ORDER, param="z"):
    """Series from a Fraction list, cut or padded to the order."""
    return DeformationSeries(param, order, [FieldElem(rat(v.numerator, v.denominator))
                                            for v in dense(values, order)])


def dense(values, order=ORDER):
    values = list(values)[: order + 1]
    return values + [Fraction(0)] * (order + 1 - len(values))


def assert_canonical(series, lo=0):
    degrees = [d for d, _ in series.terms]
    assert degrees == sorted(set(degrees))
    assert all(lo <= d <= series.order for d in degrees)
    assert not any(c.is_zero() for _, c in series.terms)


def same(x, y):
    assert x == y
    assert hash(x) == hash(y)


class TestSparseSeries:
    @given(sparse_inputs, sparse_inputs)
    @settings(max_examples=80, deadline=None)
    def test_mul_matches_brute(self, x, y):
        got = fs(x) * fs(y)
        assert_canonical(got)
        same(got, fs(brute_mul(dense(x), dense(y), ORDER)))

    @given(sparse_inputs, sparse_inputs)
    @settings(max_examples=80, deadline=None)
    def test_add_matches_brute(self, x, y):
        got = fs(x) + fs(y)
        assert_canonical(got)
        same(got, fs([p + q for p, q in zip(dense(x), dense(y))]))

    @given(sparse_inputs)
    @settings(max_examples=60, deadline=None)
    def test_exact_cancellation(self, x):
        a, minus_a = fs(x), fs([-v for v in x])
        zero = DeformationSeries.zero("z", ORDER)
        for s in (a + minus_a, minus_a + a):
            same(s, zero)
            assert s.is_zero() and s.terms == ()

    @given(sparse_inputs)
    @settings(max_examples=60, deadline=None)
    def test_dense_constructor_equals_arithmetic(self, x):
        coeffs = [FieldElem(rat(v.numerator, v.denominator)) for v in dense(x)]
        built = DeformationSeries.zero("z", ORDER)
        for k, c in enumerate(coeffs):
            built = built + DeformationSeries("z", ORDER, [c if j == k else FE_ZERO
                                                           for j in range(ORDER + 1)])
        same(DeformationSeries("z", ORDER, coeffs), built)
        assert dense_coeffs(built) == coeffs

    @given(sparse_inputs, st.integers(0, 2 * ORDER))
    @settings(max_examples=60, deadline=None)
    def test_terms_above_order_dropped(self, x, d):
        # a product by param**d keeps the degrees up to the order only
        got = fs(x) * fs([Fraction(0)] * d + [Fraction(1)])
        assert_canonical(got)
        same(got, fs(brute_shift(dense(x), d, ORDER)))

    def test_mismatched_series_rejected(self):
        with pytest.raises(ValueError):
            fs([1]) * fs([1], order=ORDER + 1)
        with pytest.raises(ValueError):
            fs([1]) + fs([1], param="w")
