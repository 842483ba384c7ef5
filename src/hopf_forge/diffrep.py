"""Momentum-space differential representation of the null-plane deformation.

An operator is a finite sum of w^k times a Laurent coefficient (a polynomial
in (p_plus, p_1, m_q2) over a power of p_plus, :class:`ratfunc.Laurent`)
times partial derivatives, stored as graded terms
``{((a, b), k): f}`` for w^k f d_+^a d_1^b, the same shape as an algebra
element's ``{(word, k): scalar}``; a function is a derivative-free operator.
The canonical form keeps all derivatives rightmost, and composition applies
the Leibniz rule exactly, skipping a pair of terms above the truncation order.
Poles in p_plus are expected (the light-cone Hamiltonian has them); no w-series
is ever divided.  Every w-series is a closed form in q = (e^{2wp_+} - 1)/(2w),
the value of Q on a momentum eigenstate: q itself multiplies K_2 and E_1, and
1/(2q) = w/(e^{2wp_+} - 1), read off the Bernoulli numbers, gives the F_1
coefficient and the Hamiltonian (m_q^2 + p_1^2)/(2q) + w m_q^2.

The published dynamical generator F_1 admits two plausible readings of its
derivative coefficient (with or without an extra exp(-2 w p_plus) next to
p_1^2); ``resolve_f1_reading`` settles the question by checking the operator
commutation relations and reports the reading that closes.
"""

from __future__ import annotations

from math import comb, factorial

from .coeff import FieldElem, rat, series
from .ncalg import WordMap, _by_word, _diff_terms, _scaled_terms, _sum_terms, add_term
from .ratfunc import Laurent, PolyRing
from .report import CheckReport, timed_reports
from .algebras import preset

MOMENTUM_RING = PolyRing(("p_plus", "p_1", "m_q2"))

RF_ZERO = Laurent(MOMENTUM_RING.zero())
RF_ONE = Laurent(MOMENTUM_RING.one())
rf = Laurent  # rf(num, shift=0) is num / p_plus**shift


def pvar(name):
    return MOMENTUM_RING.var(name)


def _partial(memo, i, j):
    """d_+^i d_1^j of the function ``memo[(0, 0)]``, memoised in ``memo``."""
    out = memo.get((i, j))
    if out is None:
        out = (_partial(memo, i - 1, j).derivative("p_plus") if i
               else _partial(memo, 0, j - 1).derivative("p_1"))
        memo[(i, j)] = out
    return out


def _times_partials(series, d):
    """Terms of the operator ``series * d_+^a d_1^b`` for ``d = (a, b)``, from
    the w-series ``{k: Laurent}``."""
    return {(d, k): f for k, f in series.items()}


class WeylOperator:
    """Finite sum of w^k * f * d_+^a d_1^b for Laurent coefficients f, stored
    like an algebra element's graded terms: ``{((a, b), k): f}``, nonzero f
    and k up to the order only.  A function is a derivative-free operator."""

    __slots__ = ("order", "terms")

    def __init__(self, order, terms):
        self.order = order
        self.terms = {key: c for key, c in terms.items()
                      if key[1] <= order and not c.is_zero()}

    @classmethod
    def zero(cls, order):
        return cls(order, {})

    @classmethod
    def identity(cls, order):
        return cls(order, {((0, 0), 0): RF_ONE})

    @classmethod
    def multiplication(cls, order, series):
        """Multiplication by the w-series ``{k: Laurent}``."""
        return cls(order, _times_partials(series, (0, 0)))

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, WeylOperator):
            return NotImplemented
        return self.order == other.order and self.terms == other.terms

    def __add__(self, other):
        return WeylOperator(self.order, _sum_terms(self.terms, other.terms))

    def __sub__(self, other):
        return WeylOperator(self.order, _diff_terms(self.terms, other.terms))

    def __neg__(self):
        return WeylOperator(self.order, {key: -c for key, c in self.terms.items()})

    def scaled(self, c, k=0):
        """This operator times the scalar ``c`` and ``w**k``."""
        return WeylOperator(self.order, _scaled_terms(self.terms, c, k, self.order))

    def __mul__(self, other):
        """Operator composition (self applied after acting with other)."""
        if not isinstance(other, WeylOperator):
            return self.scaled(other)
        # the derivatives of each right-hand coefficient, shared by every left-hand term
        right = [(d, k, {(0, 0): g}) for (d, k), g in other.terms.items()]
        out = {}
        for ((a, b), k1), f in self.terms.items():
            for (c, d), k2, memo in right:
                if k1 + k2 > self.order:
                    continue
                # move d_+^a d_1^b through the multiplication part of g
                for i in range(a + 1):
                    for j in range(b + 1):
                        gij = _partial(memo, i, j)
                        if not gij.is_zero():
                            n = comb(a, i) * comb(b, j)
                            add_term(out, ((a - i + c, b - j + d), k1 + k2),
                                     f * gij if n == 1 else f * gij * n)
        return WeylOperator(self.order, out)

    __rmul__ = scaled

    def commutator(self, other):
        return self * other - other * self

    def derivative_free(self):
        return all(d == (0, 0) for d, _ in self.terms)

    def apply_to(self, func):
        """Act on a function, a derivative-free operator; the result is one too."""
        right = [(k, {(0, 0): g}) for (_, k), g in func.terms.items()]
        out = {}
        for ((a, b), k1), f in self.terms.items():
            for k2, memo in right:
                if k1 + k2 <= self.order:
                    g = _partial(memo, a, b)
                    if not g.is_zero():
                        add_term(out, ((0, 0), k1 + k2), f * g)
        return WeylOperator(self.order, out)

    def apply_to_monomial(self, alpha, beta):
        mono = rf(pvar("p_plus") ** alpha * pvar("p_1") ** beta)
        return self.apply_to(WeylOperator.multiplication(self.order, {0: mono}))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (a, b), series in _by_word(self.terms, lambda d: d):
            ds = "".join(["d+" * bool(a), f"^{a}" * (a > 1),
                          "d1" * bool(b), f"^{b}" * (b > 1)])
            coeffs = dict(series)
            dense = tuple(coeffs.get(k, RF_ZERO) for k in range(self.order + 1))
            bits.append(f"({dense!r})*{ds or '1'}")
        return " + ".join(bits)


# -- the representation ----------------------------------------------------------

def _bernoulli(n):
    """B_0..B_n, with B_1 = -1/2, from sum_{j <= m} C(m+1, j) B_j = 0."""
    b = [rat(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def q_series(order):
    """q = (e^{2wp_+} - 1)/(2w) = sum_k 2^k p_+^(k+1)/(k+1)! w^k as {k: Laurent}."""
    p_plus = pvar("p_plus")
    return {k: rf(p_plus ** (k + 1) * FieldElem(rat(2 ** k, factorial(k + 1))))
            for k in range(order + 1)}


def half_inverse_q_series(order):
    """1/(2q) = w/(e^{2wp_+} - 1) = sum_k B_k 2^(k-1) p_+^(k-1)/k! w^k as
    {k: Laurent}; the odd B_k past B_1 vanish, and so do their terms."""
    p_plus = pvar("p_plus")
    return {k: rf(p_plus ** k * FieldElem(b * rat(2 ** k, 2 * factorial(k))), 1)
            for k, b in enumerate(_bernoulli(order)) if b}


def build_stability_rep(order):
    """P_+ = p_+, P_1 = p_1, K_2 and E_1 with the multiplier q."""
    mult = q_series(order)
    return {
        "P_plus": WeylOperator.multiplication(order, {0: rf(pvar("p_plus"))}),
        "P_1": WeylOperator.multiplication(order, {0: rf(pvar("p_1"))}),
        "K_2": WeylOperator(order, _times_partials(mult, (1, 0))),
        "E_1": WeylOperator(order, _times_partials(mult, (0, 1))),
    }


def hamiltonian_multiplier(order):
    """P_- = w(m_q^2 + p_1^2 e^{-2wp_+}) / (1 - e^{-2wp_+}) = (m_q^2 + p_1^2)/(2q) + w m_q^2."""
    return f1_derivative_coefficient(order, "exponential")


def f1_derivative_coefficient(order, reading="plain"):
    """w(m_q^2 + p_1^2 [e^{-2wp_+}]) / (1 - e^{-2wp_+}) as the w-series
    ``{k: Laurent}``; the bracketed factor is present only in the
    'exponential' reading.  As w/(1 - e^{-2wp_+}) = 1/(2q) + w and
    w e^{-2wp_+}/(1 - e^{-2wp_+}) = 1/(2q), it is (m_q^2 + p_1^2)/(2q) plus
    w(m_q^2 + p_1^2) in the plain reading and w m_q^2 in the exponential one."""
    m2 = rf(pvar("m_q2"))
    mass = m2 + rf(pvar("p_1") ** 2)
    if reading == "plain":
        extra = mass
    elif reading == "exponential":
        extra = m2
    else:
        raise ValueError(f"unknown F_1 reading {reading!r}")
    out = {k: c * mass for k, c in half_inverse_q_series(order).items()}
    if order:
        out[1] = out[1] + extra
    return out


def build_dynamical_rep(order, reading="plain"):
    """P_- (multiplication) and F_1 = p_1 d_+ + (coefficient) d_1."""
    f1_terms = _times_partials(f1_derivative_coefficient(order, reading), (0, 1))
    f1_terms[((1, 0), 0)] = rf(pvar("p_1"))
    return {
        "P_minus": WeylOperator.multiplication(order, hamiltonian_multiplier(order)),
        "F_1": WeylOperator(order, f1_terms),
    }


def full_rep(order, reading="plain"):
    rep = build_stability_rep(order)
    rep.update(build_dynamical_rep(order, reading))
    return rep


def rep_of_element(rep, element, order):
    """Image of a null-plane algebra element under the representation (its
    Q(sqrt2) scalars scale the Laurent coefficients directly)."""
    return WordMap(element.algebra, rep, WeylOperator.identity(order),
                   WeylOperator.zero(order))(element)


# -- checks -----------------------------------------------------------------------

def check_rep_relations(order, reading="plain"):
    """Every preset commutation rule holds at the operator level, exactly."""
    bundle = preset("nullplane", order)
    alg = bundle.presentation
    rep = full_rep(order, reading)
    out = CheckReport(check="diffrep-relations", algebra="nullplane", order=order,
                      details={"f1_reading": reading})
    for j in range(6):
        for i in range(j):
            x, y = alg.generators[j], alg.generators[i]
            rhs = rep_of_element(rep, alg.gen(j).commutator(alg.gen(i)), order)
            out.expect_zero(f"[{x},{y}]", rep[x].commutator(rep[y]) - rhs)
    return out


def resolve_f1_reading(order, plain=None):
    """Accept whichever F_1 reading closes the operator relations; ``plain`` is
    the plain-reading report when it is already made."""
    plain = plain or check_rep_relations(order, "plain")
    if plain.passed:
        plain.details["accepted"] = "plain (as printed)"
        return plain
    expo = check_rep_relations(order, "exponential")
    expo.details["accepted"] = "exponential (printed form rejected)"
    return expo


def check_casimir_action(order, reading="plain"):
    """rep(M_q^2) = m_q^2 * 1 and rep(L_q) = 0."""
    bundle = preset("nullplane", order)
    rep = full_rep(order, reading)
    out = CheckReport(check="diffrep-casimirs", algebra="nullplane", order=order)
    target = WeylOperator.multiplication(order, {0: rf(MOMENTUM_RING.var("m_q2"))})
    out.expect_zero("rep(M_q2) - m_q2*1",
                    rep_of_element(rep, bundle.casimirs["M_q2"], order) - target)
    out.expect_zero("rep(L_q)", rep_of_element(rep, bundle.casimirs["L_q"], order))
    return out


def hamiltonian_series(order):
    """The w-coefficients of rep(P_-), as pure multiplication operators."""
    mult = hamiltonian_multiplier(order)
    return [mult.get(k, RF_ZERO) for k in range(order + 1)]


def expected_hamiltonian_terms():
    """The three displayed low-order coefficients of the deformed Hamiltonian."""
    p_plus, p_1, m2 = (pvar(n) for n in MOMENTUM_RING.vars)
    half = FieldElem(rat(1, 2))
    sixth = FieldElem(rat(1, 6))
    return [
        rf((m2 + p_1 ** 2) * half, 1),
        rf((m2 - p_1 ** 2) * half),
        rf(p_plus * (m2 + p_1 ** 2) * sixth),
    ]


def check_hamiltonian(order):
    out = CheckReport(check="diffrep-hamiltonian", algebra="nullplane", order=order)
    got = hamiltonian_series(order)
    want = expected_hamiltonian_terms()
    # the paper displays the coefficients up to w^2 (the w^1 one is nonzero)
    for k, w in enumerate(want[: order + 1]):
        if got[k] != w:
            out.add_failure(f"w^{k} coefficient", f"{got[k]!r} != {w!r}")
    # every coefficient obeys P_- (1 - e^{-2wp_+}) = w(m_q^2 + p_1^2 e^{-2wp_+}),
    # checked to w^(order+1) as the denominator has no constant term
    top = order + 1
    expo = {k: rf(pvar("p_plus") ** k * FieldElem(rat((-2) ** k, factorial(k))))
            for k in range(top + 1)}
    num = {k + 1: rf(pvar("p_1") ** 2) * e for k, e in expo.items()}
    num[1] = num[1] + rf(pvar("m_q2"))
    product = (series("w", top, dict(enumerate(got)))
               * series("w", top, {k: -e for k, e in expo.items() if k}))
    if product != series("w", top, num):
        out.add_failure("P_minus * (1 - e^{-2wp_+})", f"{product!r} != {series('w', top, num)!r}")
    # all coefficients are multiplication operators by construction; check the
    # operator as a whole for derivative parts anyway
    rep = build_dynamical_rep(order)
    if not rep["P_minus"].derivative_free():
        out.add_failure("P_minus", "carries derivative terms")
    return out


def check_two_evaluation_paths(order, max_degree=4, reading="plain"):
    """Composed commutators agree with repeated action on the monomial basis."""
    bundle = preset("nullplane", order)
    alg = bundle.presentation
    rep = full_rep(order, reading)
    out = CheckReport(check="diffrep-action", algebra="nullplane", order=order)
    monomials = [(a, b) for a in range(max_degree + 1)
                 for b in range(max_degree + 1 - a)]
    # each generator's action on each monomial, shared by every pair
    acted = {(x, m): rep[x].apply_to_monomial(*m)
             for x in alg.generators for m in monomials}
    for j in range(6):
        for i in range(j):
            x, y = alg.generators[j], alg.generators[i]
            comm_op = rep[x].commutator(rep[y])
            bad = []
            for m in monomials:
                direct = comm_op.apply_to_monomial(*m)
                via = rep[x].apply_to(acted[y, m]) - rep[y].apply_to(acted[x, m])
                if not (direct - via).is_zero():
                    bad.append(m)
            if bad:
                out.add_failure(f"[{x},{y}]", f"monomials {bad}")
    return out


def run_diffrep_checks(order, fault=None):
    """The four diffrep reports, each carrying its own measured time."""
    reading = "exponential" if fault == "diffrep-op" else "plain"

    def relations():
        rep = check_rep_relations(order, reading)
        if fault is None:
            # a passing ``rep`` comes back marked ``accepted``; pop keeps that key out of it
            rep.details["f1_reading"] = resolve_f1_reading(order, rep).details.pop("accepted")
        return rep

    return timed_reports(relations, lambda: check_casimir_action(order, reading),
                         lambda: check_hamiltonian(order),
                         lambda: check_two_evaluation_paths(order, reading=reading))
