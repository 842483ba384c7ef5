"""Exact scalar layer: field arithmetic, truncated series and their quotients."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopf_forge.coeff import (DeformationSeries, FE_ONE, FieldElem, NonInvertible,
                              PoleDetected, ZeroDivisor, rat)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)
field_elems = st.builds(lambda a, b: FieldElem(rat(a.numerator, a.denominator),
                                               rat(b.numerator, b.denominator)),
                        rationals, rationals)


def ds(coeffs, param="z", order=None):
    order = order if order is not None else len(coeffs) - 1
    return DeformationSeries.from_coeffs([FieldElem(rat(c) if not isinstance(c, tuple)
                                                    else rat(*c)) for c in coeffs],
                                         param, order)


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


# Series with a tracked order as ({degree: Fraction}, order), reduced naively.

def brute_laurent(terms, order):
    return {d: c for d, c in terms.items() if c and d <= order}, order


def brute_laurent_mul(a, b):
    (ta, oa), (tb, ob) = a, b
    if not ta or not tb:
        return {}, min(oa, ob)
    order = min(oa + min(tb), ob + min(ta))
    out = {}
    for d1, c1 in ta.items():
        for d2, c2 in tb.items():
            out[d1 + d2] = out.get(d1 + d2, Fraction(0)) + c1 * c2
    return brute_laurent(out, order)


def brute_laurent_divide(a, b):
    """a / b: b's unit part inverted by dense back-substitution, then a product."""
    (ta, oa), (tb, ob) = a, b
    vb = min(tb)
    rel = ob - vb
    unit = [tb.get(vb + k, Fraction(0)) for k in range(rel + 1)]
    inv = []
    for n in range(rel + 1):
        acc = sum((unit[k] * inv[n - k] for k in range(1, n + 1)), Fraction(0))
        inv.append(((1 if n == 0 else 0) - acc) / unit[0])
    shifted = ({d - vb: c for d, c in ta.items()}, oa - vb)
    return brute_laurent_mul(shifted, brute_laurent(dict(enumerate(inv)), rel))


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


class TestSeriesInverse:
    def test_geometric(self):
        assert ds([1, -1, 0, 0]).inverse() == ds([1, 1, 1, 1])

    def test_one(self):
        one = DeformationSeries.one("z", 2)
        assert one.inverse() == one

    def test_solves_convolution(self):
        s = ds([1, 2, 2])
        inv = s.inverse()
        assert inv == ds([1, -2, 2])
        assert s * inv == DeformationSeries.one("z", 2)

    def test_zero_constant_term_rejected(self):
        with pytest.raises(NonInvertible):
            ds([0, 1]).inverse()

    @given(st.lists(rationals, min_size=2, max_size=5))
    @settings(max_examples=40, deadline=None)
    def test_random_inverses(self, coeffs):
        if coeffs[0] == 0:
            coeffs[0] = Fraction(1)
        s = ds([(c.numerator, c.denominator) for c in coeffs])
        assert s * s.inverse() == DeformationSeries.one("z", s.order)


class TestLaurent:
    """Quotients whose divisor has a positive valuation (a Laurent division
    in general): the common power of the parameter is divided out first."""

    def ls(self, terms, order):
        return DeformationSeries.from_coeffs(
            [FieldElem(rat(v) if not isinstance(v, tuple) else rat(*v))
             for v in (terms.get(k, 0) for k in range(order + 1))], "w", order)

    def test_divide_multiplies_back(self):
        a = self.ls({1: 1}, 3)
        b = self.ls({1: 2, 2: -2}, 3)
        q = a.quotient(b, 2)
        assert [c.a for c in q.coeffs] == [rat(1, 2)] * 3
        assert q * self.ls({0: 2, 1: -2}, 2) == self.ls({0: 1}, 2)

    def test_one_over_w(self):
        with pytest.raises(PoleDetected):
            self.ls({0: 1}, 2).quotient(self.ls({1: 1}, 2), 1)

    def test_cancellation(self):
        q = self.ls({1: 1, 2: 1}, 3).quotient(self.ls({1: 1}, 3), 2)
        assert q.coefficient(0) == FE_ONE and q.coefficient(1) == FE_ONE
        assert q.coefficient(2).is_zero()

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisor):
            self.ls({0: 1}, 2).quotient(self.ls({}, 2), 1)

    def test_regularity_after_exact_cancellation(self):
        # a dividend whose low terms cancel exactly has the divisor's valuation
        s = self.ls({1: 1, 2: 2}, 3) - self.ls({1: 1}, 3)
        q = s.quotient(self.ls({2: 1}, 3), 1)
        assert q == self.ls({0: 2}, 1)
        with pytest.raises(PoleDetected):
            self.ls({1: 1, 2: 2}, 3).quotient(self.ls({2: 1}, 3), 1)

    def test_precision_is_the_order_less_the_valuation(self):
        a, b = self.ls({1: 1}, 3), self.ls({1: 1, 2: 1}, 3)
        assert a.quotient(b, 2) == self.ls({0: 1, 1: -1, 2: 1}, 2)
        with pytest.raises(ValueError, match="precision"):
            a.quotient(b, 3)


def test_sympy_oracle_agreement():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    expr = (1 / (1 - z - 2 * z ** 2 / 3)).series(z, 0, 4).removeO()
    want = [expr.coeff(z, k) for k in range(4)]
    got = ds([1, -1, (-2, 3), 0], order=3).inverse()
    assert all(sympy.Rational(int(c.a.numerator), int(c.a.denominator)) == w
               for c, w in zip(got.coeffs, want))


# -- sparse inputs: mostly-zero lists, monomials, exact cancellation -----------

ORDER = 4
zeros = st.just(Fraction(0))
sparse_lists = st.lists(st.one_of(zeros, zeros, zeros, rationals), min_size=1,
                        max_size=ORDER + 3)
monomials = st.builds(lambda d, c: [Fraction(0)] * d + [c],
                      st.integers(0, ORDER + 2), rationals.filter(bool))
sparse_inputs = st.one_of(sparse_lists, monomials)


def fs(values, order=ORDER, param="z"):
    """Series from a Fraction list through the dense constructor path."""
    return DeformationSeries.from_coeffs(
        [FieldElem(rat(v.numerator, v.denominator)) for v in values], param, order)


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
        same(fs(x) - fs(y), fs([p - q for p, q in zip(dense(x), dense(y))]))

    @given(sparse_inputs)
    @settings(max_examples=60, deadline=None)
    def test_exact_cancellation(self, x):
        a = fs(x)
        zero = DeformationSeries.zero("z", ORDER)
        for s in (a + (-a), a - a, (-a) + a):
            same(s, zero)
            assert s.is_zero() and s.terms == ()

    @given(sparse_inputs)
    @settings(max_examples=60, deadline=None)
    def test_dense_constructor_equals_arithmetic(self, x):
        coeffs = [FieldElem(rat(v.numerator, v.denominator)) for v in dense(x)]
        built = DeformationSeries.zero("z", ORDER)
        for k, c in enumerate(coeffs):
            built = built + DeformationSeries.monomial(c, k, "z", ORDER)
        same(DeformationSeries("z", ORDER, coeffs), built)
        assert built.coeffs == tuple(coeffs)
        assert [built.coefficient(k) for k in range(ORDER + 1)] == coeffs

    @given(sparse_inputs, st.integers(0, 2 * ORDER))
    @settings(max_examples=60, deadline=None)
    def test_terms_above_order_dropped(self, x, d):
        assert fs(x) == fs(x[: ORDER + 1])
        assert len(fs(x).coeffs) == ORDER + 1
        mono = DeformationSeries.monomial(FE_ONE, d, "z", ORDER)
        assert mono.is_zero() == (d > ORDER)
        prod = mono * DeformationSeries.monomial(FE_ONE, 1, "z", ORDER)
        same(prod, DeformationSeries.monomial(FE_ONE, d + 1, "z", ORDER))

    @given(sparse_inputs, st.integers(-ORDER - 2, ORDER + 2))
    @settings(max_examples=80, deadline=None)
    def test_shifted(self, x, k):
        a = fs(x)
        valuation = a.terms[0][0] if a.terms else ORDER + 1
        if k < 0 and valuation < -k:
            with pytest.raises(ZeroDivisor):
                a.shifted(k)
            return
        got = a.shifted(k)
        assert_canonical(got)
        same(got, fs(brute_shift(dense(x), k, ORDER)))

    def test_mismatched_series_rejected(self):
        with pytest.raises(ValueError):
            fs([1]) * fs([1], order=ORDER + 1)
        with pytest.raises(ValueError):
            fs([1]) + fs([1], param="w")


class TestLaurentBrute:
    @given(sparse_inputs, sparse_inputs)
    @settings(max_examples=80, deadline=None)
    def test_divide_matches_brute(self, x, y):
        a, b = fs(x), fs(y)
        if b.is_zero():
            with pytest.raises(ZeroDivisor):
                a.quotient(b, 0)
            return
        v = b.terms[0][0]
        if a.terms and a.terms[0][0] < v:
            with pytest.raises(PoleDetected):
                a.quotient(b, 0)
            return
        got = a.quotient(b, ORDER - v)
        assert_canonical(got)
        terms, order = brute_laurent_divide(
            *(({d: v for d, v in enumerate(dense(z)) if v}, ORDER) for z in (x, y)))
        assert order == ORDER - v
        same(got, fs([terms.get(d, Fraction(0)) for d in range(order + 1)], order))
        with pytest.raises(ValueError):
            a.quotient(b, ORDER - v + 1)
