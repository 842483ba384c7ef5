"""Differential representation: Weyl calculus, relations, Casimir action."""

from math import factorial

import pytest

from hopf_forge import diffrep
from hopf_forge.coeff import DeformationSeries, FieldElem, rat
from hopf_forge.diffrep import (MOMENTUM_RING, RF_ONE, RF_ZERO, WeylOperator,
                                build_dynamical_rep, build_stability_rep,
                                check_casimir_action, check_hamiltonian,
                                check_rep_relations, check_two_evaluation_paths,
                                expected_hamiltonian_terms,
                                f1_derivative_coefficient, full_rep,
                                half_inverse_q_series, hamiltonian_series, q_series,
                                resolve_f1_reading, rf, pvar)


def rf_const(c):
    return rf(MOMENTUM_RING.constant(c))


def mult_op(order, poly):
    return WeylOperator.multiplication(order, {0: rf(poly)})


class TestWeylCalculus:
    def test_canonical_relation(self):
        d_plus = WeylOperator(2, {((1, 0), 0): RF_ONE})
        p_plus = mult_op(2, pvar("p_plus"))
        assert d_plus.commutator(p_plus) == WeylOperator.identity(2)

    def test_cross_derivative_vanishes(self):
        d_1 = WeylOperator(2, {((0, 1), 0): RF_ONE})
        p_plus = mult_op(2, pvar("p_plus"))
        assert d_1.commutator(p_plus).is_zero()

    def test_mixed_commutator_leibniz(self):
        # [p_1 d_+, p_+ d_1] = p_1 d_1 - p_+ d_+
        a = WeylOperator(2, {((1, 0), 0): rf(pvar("p_1"))})
        b = WeylOperator(2, {((0, 1), 0): rf(pvar("p_plus"))})
        want = WeylOperator(2, {((0, 1), 0): rf(pvar("p_1")),
                                ((1, 0), 0): -rf(pvar("p_plus"))})
        assert a.commutator(b) == want
        # independent check by action on monomials
        for alpha in range(3):
            for beta in range(3):
                lhs = a.commutator(b).apply_to_monomial(alpha, beta)
                rhs = a.apply_to(b.apply_to_monomial(alpha, beta)) \
                    - b.apply_to(a.apply_to_monomial(alpha, beta))
                assert lhs == rhs

    def test_composition_is_associative(self):
        x = WeylOperator(2, {((1, 0), 0): rf(pvar("p_1"))})
        y = WeylOperator(2, {((0, 1), 0): rf(MOMENTUM_RING.one(), 1)})
        z = mult_op(2, pvar("p_plus") * pvar("p_1"))
        assert (x * y) * z == x * (y * z)

    def test_leibniz_binomials(self):
        # d_+^2 p_+^2 = p_+^2 d_+^2 + 4 p_+ d_+ + 2
        d2 = WeylOperator(2, {((2, 0), 0): RF_ONE})
        p_plus = pvar("p_plus")
        want = WeylOperator(2, {((2, 0), 0): rf(p_plus ** 2), ((1, 0), 0): rf(p_plus * 4),
                                ((0, 0), 0): rf_const(2)})
        assert d2 * mult_op(2, p_plus ** 2) == want

    def test_composition_agrees_with_successive_action(self):
        # second-order left factors, w-dependent coefficients on both sides
        rep = full_rep(2)
        pairs = [(rep["K_2"] * rep["E_1"], rep["F_1"]), (rep["F_1"] * rep["F_1"], rep["K_2"]),
                 (rep["E_1"] * rep["K_2"], rep["P_minus"] * rep["E_1"])]
        for x, y in pairs:
            xy = x * y
            for alpha in range(3):
                for beta in range(3):
                    assert xy.apply_to_monomial(alpha, beta) \
                        == x.apply_to(y.apply_to_monomial(alpha, beta)), (alpha, beta)


class TestStabilityRep:
    def test_k2_classical_limit(self):
        rep = build_stability_rep(2)
        k2 = rep["K_2"]
        assert {d for d, _ in k2.terms} == {(1, 0)}
        assert k2.terms[((1, 0), 0)] == rf(pvar("p_plus"))

    def test_e1_applied_to_p1(self):
        rep = build_stability_rep(3)
        got = rep["E_1"].apply_to_monomial(0, 1)
        # (e^{2wp+}-1)/(2w): orders p+, w p+^2, (2/3) w^2 p+^3 ...
        assert got.terms[((0, 0), 0)] == rf(pvar("p_plus"))
        assert got.terms[((0, 0), 1)] == rf(pvar("p_plus") ** 2)
        assert got.terms[((0, 0), 2)] == rf(pvar("p_plus") ** 3 * FieldElem(rat(2, 3)))

    def test_k2_kills_constants(self):
        rep = build_stability_rep(2)
        assert rep["K_2"].apply_to_monomial(0, 0).is_zero()


class TestDynamicalRep:
    def test_relations_close_with_printed_reading(self):
        rep = resolve_f1_reading(3)
        assert rep.passed
        assert rep.details["accepted"].startswith("plain")

    def test_exponential_reading_fails(self):
        assert not check_rep_relations(3, "exponential").passed

    def test_relations_at_order_4(self):
        assert check_rep_relations(4).passed

    def test_casimir_action(self):
        assert check_casimir_action(4).passed

    def test_two_evaluation_paths(self):
        assert check_two_evaluation_paths(3, max_degree=3).passed

    def test_plain_relations_checked_once(self, monkeypatch):
        calls = []
        real = diffrep.check_rep_relations

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(diffrep, "check_rep_relations", counted)
        relations = diffrep.run_diffrep_checks(3)[0]
        assert calls == [(3, "plain")]
        # the accepted reading is reported, and no ``accepted`` key besides
        assert relations.details == {"f1_reading": "plain (as printed)"}


class TestHamiltonian:
    def test_displayed_coefficients(self):
        got = hamiltonian_series(3)
        want = expected_hamiltonian_terms()
        assert got[:3] == want

    def test_first_order_term_nonzero(self):
        assert not hamiltonian_series(2)[1].is_zero()

    def test_massless_leading_term(self):
        got = hamiltonian_series(2)[0]
        # at m_q^2 = 0 the order-0 term is p_1^2/(2 p_plus)
        from hopf_forge.ratfunc import Polynomial
        massless = Polynomial(MOMENTUM_RING,
                              {m: c for m, c in got.num.terms.items()
                               if MOMENTUM_RING.unpack(m)[2] == 0})
        assert rf(massless, got.shift) == rf(pvar("p_1") ** 2 * FieldElem(rat(1, 2)), 1)

    def test_report(self):
        assert check_hamiltonian(3).passed

    def test_report_checks_coefficients_past_the_displayed_ones(self, monkeypatch):
        # B_4 first enters P_- at w^4, past the three displayed coefficients
        bernoulli = diffrep._bernoulli
        monkeypatch.setattr(diffrep, "_bernoulli",
                            lambda n: [b * 2 if k == 4 else b
                                       for k, b in enumerate(bernoulli(n))])
        assert check_hamiltonian(3).passed
        report = check_hamiltonian(4)
        assert [f["input"] for f in report.failures] == ["P_minus * (1 - e^{-2wp_+})"]

    def test_p_minus_applied_to_one_is_the_series(self):
        rep = build_dynamical_rep(3)
        got = rep["P_minus"].apply_to_monomial(0, 0)
        assert [got.terms.get(((0, 0), k), RF_ZERO) for k in range(4)] == hamiltonian_series(3)

    def test_all_coefficients_derivative_free(self):
        rep = build_dynamical_rep(3)
        assert rep["P_minus"].derivative_free()

    @pytest.mark.parametrize("reading", ["plain", "exponential"])
    def test_f1_coefficient_times_denominator_is_the_numerator(self, reading):
        # c = w(m_q^2 + p_1^2 [e^{-2wp_+}]) / (1 - e^{-2wp_+}) to order N:
        # c * (1 - e^{-2wp_+}) is the numerator to order N + 1, since the
        # denominator has no constant term
        p_plus, p_1, m2 = (pvar(n) for n in MOMENTUM_RING.vars)
        for order in range(9):
            top = order + 1
            expo = [rf(p_plus ** k * FieldElem(rat((-2) ** k, factorial(k))))
                    for k in range(top + 1)]
            den = [rf_const(1) - expo[0]] + [-e for e in expo[1:]]
            bracket = expo if reading == "exponential" else [rf_const(1)] + [RF_ZERO] * top
            num = [RF_ZERO] + [rf(p_1 ** 2) * bracket[k] for k in range(top)]
            num[1] = num[1] + rf(m2)
            c = f1_derivative_coefficient(order, reading)
            series = [DeformationSeries("w", top, s)
                      for s in ([c.get(k, RF_ZERO) for k in range(top + 1)], den, num)]
            assert series[0] * series[1] == series[2], order

    @pytest.mark.parametrize("order", range(9))
    def test_q_times_its_half_inverse_is_a_half(self, order):
        q, h = q_series(order), half_inverse_q_series(order)
        product = [sum((q[i] * h[k - i] for i in range(k + 1) if k - i in h), RF_ZERO)
                   for k in range(order + 1)]
        assert product == [rf_const(FieldElem(rat(1, 2)))] + [RF_ZERO] * order


def test_closed_forms_match_sympy_series():
    sympy = pytest.importorskip("sympy")
    w = sympy.Symbol("w")
    xs = sympy.symbols(MOMENTUM_RING.vars)
    p, p1, m2 = xs
    order = 8

    def to_sympy(f):
        num = sum((sympy.Rational(c.p, c.d) + sympy.Rational(c.q, c.d) * sympy.sqrt(2))
                  * sympy.Mul(*(x ** e for x, e in zip(xs, MOMENTUM_RING.unpack(m))))
                  for m, c in f.num.terms.items())
        return num / p ** f.shift

    e = sympy.exp(2 * w * p)
    cases = [(q_series(order), (e - 1) / (2 * w)),
             (half_inverse_q_series(order), w / (e - 1)),
             (f1_derivative_coefficient(order, "plain"), w * (m2 + p1 ** 2) / (1 - 1 / e)),
             (f1_derivative_coefficient(order, "exponential"),
              w * (m2 + p1 ** 2 / e) / (1 - 1 / e))]
    for got, expr in cases:
        want = sympy.series(expr, w, 0, order + 1).removeO()
        for k in range(order + 1):
            diff = (to_sympy(got[k]) if k in got else 0) - want.coeff(w, k)
            assert sympy.simplify(diff) == 0, (expr, k)
