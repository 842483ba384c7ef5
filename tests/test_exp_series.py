"""The one truncated exponential: ``ncalg.exp_series`` against hand expansions.

``one_gen_series`` and ``two_gen_series`` below are the closed-form
expansions the presets used to be built from; every series now comes out of
``exp_series``, with the same terms in the same key order.
"""

from math import factorial

import pytest

from hopf_forge.algebras import _so22_series, exp_gen, preset
from hopf_forge.coeff import FE_ONE, FieldElem, NonzeroConstantTerm, rat
from hopf_forge.expr import ExpressionError, parse_to_element
from hopf_forge.ncalg import AlgebraPresentation, TensorElement, exp_series, tensor_pair

ORDERS = range(1, 7)
CS = (FieldElem(1), FieldElem(-1), FieldElem(2), FieldElem(-2), FieldElem(rat(1, 2)))
PARITIES = (None, 0, 1)
SHIFTS = (0, -1)


def one_gen_series(alg, g, c, parity=None, shift=0):
    """sum_b c^b/b! * param^(b+shift) * g^b over admissible b."""
    i = g if isinstance(g, int) else alg.index[g]
    cf = c if isinstance(c, FieldElem) else FieldElem(c)
    terms = {}
    b = 0
    while b + shift <= alg.order:
        if (parity is None or b % 2 == parity) and b + shift >= 0:
            word = () if b == 0 else ((i, b),)
            terms[(word, b + shift)] = (cf ** b) / factorial(b)
        b += 1
    return alg.element(terms)


def two_gen_series(alg, gx, cx, gy, cy, parity_y=None, shift=0):
    """sum_{a,b} cx^a cy^b/(a! b!) * param^(a+b+shift) * gx^a gy^b."""
    ix = gx if isinstance(gx, int) else alg.index[gx]
    iy = gy if isinstance(gy, int) else alg.index[gy]
    cfx = cx if isinstance(cx, FieldElem) else FieldElem(cx)
    cfy = cy if isinstance(cy, FieldElem) else FieldElem(cy)
    terms = {}
    for a in range(alg.order - shift + 1):
        for b in range(alg.order - shift - a + 1):
            if parity_y is not None and b % 2 != parity_y:
                continue
            if a + b + shift < 0:
                continue
            coeff = (cfx ** a) * (cfy ** b) / (factorial(a) * factorial(b))
            word = []
            if a:
                word.append((ix, a))
            if b:
                word.append((iy, b))
            terms[(tuple(word), a + b + shift)] = coeff
    return alg.element(terms)


def one_gen(order):
    return AlgebraPresentation("x", ("X",), "z", order)


def commuting_pair(order):
    """P < P0 with [P, P0] = 0, the two generators of the so(2,2) series."""
    alg = AlgebraPresentation("pp", ("P", "P0"), "z", order)
    alg.set_commutators({(0, 1): alg.zero()})
    return alg


def shifted_down(x, alg):
    """The terms of ``x`` with param^k, k >= 1, as param^(k-1) terms of ``alg``
    (same generators), truncated to its order."""
    return alg.element({(w, k - 1): c for (w, k), c in x.terms.items() if k >= 1})


def same_terms_and_order(x, y):
    return x == y and list(x.terms) == list(y.terms)


class TestOneGenerator:
    @pytest.mark.parametrize("order", ORDERS)
    def test_matches_closed_form(self, order):
        alg = one_gen(order)
        for c in CS:
            for parity in PARITIES:
                for shift in SHIFTS:
                    got = exp_gen(alg, c, "X", shift, parity)
                    want = one_gen_series(alg, "X", c, parity, shift)
                    assert same_terms_and_order(got, want), (c, parity, shift)

    @pytest.mark.parametrize("order", ORDERS)
    def test_shift_is_one_order_up_shifted_down(self, order):
        alg, up = one_gen(order), one_gen(order + 1)
        for c in CS:
            for parity in PARITIES:
                want = shifted_down(exp_gen(up, c, "X", 0, parity), alg)
                assert exp_gen(alg, c, "X", -1, parity) == want, (c, parity)

    @pytest.mark.parametrize("order", ORDERS)
    def test_argument_with_higher_powers(self, order):
        # y = X + z X^2 - z^2/2: no closed form, but the shift -1 series must
        # still be the shift 0 series one order up, shifted down
        def y(alg):
            return (alg.gen(0) + alg.scalar(FE_ONE, 1) * alg.gen(0) * alg.gen(0)
                    - alg.scalar(FieldElem(rat(1, 2)), 2))
        alg, up = one_gen(order), one_gen(order + 1)
        for parity in PARITIES:
            got = exp_series(y(alg), alg.unit(), -1, parity)
            assert got == shifted_down(exp_series(y(up), up.unit(), 0, parity), alg)

    def test_shift_below_minus_one_is_refused(self):
        alg = one_gen(3)
        with pytest.raises(ValueError):
            exp_series(alg.gen(0), alg.unit(), -2)


class TestSo22Series:
    @pytest.mark.parametrize("order", ORDERS)
    def test_matches_closed_form(self, order):
        # P0-series x P-series keeps the closed form's key order; the rule
        # series put e^{czP} first, which needs no rule, and differ in order only
        alg = commuting_pair(order)
        for c in CS:
            for parity in (0, 1):
                for shift in SHIFTS:
                    want = two_gen_series(alg, 0, c, 1, 1, parity, shift)
                    got = _so22_series(alg, c, parity, shift)
                    assert same_terms_and_order(got, want), (c, parity, shift)
                    assert _so22_series(alg, c, parity, shift, p_first=True) == want

    @pytest.mark.parametrize("order", ORDERS)
    def test_shift_is_one_order_up_shifted_down(self, order):
        alg, up = commuting_pair(order), commuting_pair(order + 1)
        for c in CS:
            for parity in (0, 1):
                want = shifted_down(_so22_series(up, c, parity), alg)
                assert _so22_series(alg, c, parity, -1) == want, (c, parity)


def truncated_tensor_exp(t):
    """The tensor exponential as it was expanded by hand: 1 + t + t^2/2 + ..."""
    out = term = TensorElement.unit(t.algebra, t.arity)
    for k in range(1, t.algebra.order + 1):
        term = (term * t) * (FE_ONE / k)
        out = out + term
    return out


class TestTensorExp:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_hand_expansion(self, order):
        alg = preset("sl2", order).presentation
        t = (tensor_pair(alg.gen("A_plus"), alg.gen("A")).scaled(FieldElem(-1), 1)
             + tensor_pair(alg.gen("A"), alg.unit()).scaled(FieldElem(rat(1, 3)), 2))
        got, want = t.exp(), truncated_tensor_exp(t)
        assert same_terms_and_order(got, want)

    def test_every_param_free_term_is_refused(self):
        # a z^0 term would give a sum that does not truncate, so not an exponential
        alg = preset("sl2", 3).presentation
        leg = tensor_pair(alg.gen("A_plus"), alg.gen("A")).scaled(FE_ONE, 1)
        for bad in (TensorElement.unit(alg, 2), tensor_pair(alg.gen("A"), alg.gen("A_plus"))):
            with pytest.raises(NonzeroConstantTerm, match="nonzero constant term"):
                (leg + bad).exp()

    def test_zero_gives_unit(self):
        alg = preset("sl2", 2).presentation
        assert TensorElement.zero(alg, 3).exp() == TensorElement.unit(alg, 3)


class TestParsedExp:
    def test_param_free_argument_is_a_usage_error(self):
        alg = preset("sl2", 2).presentation
        with pytest.raises(ExpressionError, match="need a positive power of the deformation"):
            parse_to_element("exp(A_plus)", alg)

    @pytest.mark.parametrize("order", [1, 3, 5])
    def test_matches_generator_series(self, order):
        alg = preset("nullplane", order).presentation
        got = parse_to_element("exp(-2*w*P_plus)", alg)
        assert same_terms_and_order(got, exp_gen(alg, -2, "P_plus"))
