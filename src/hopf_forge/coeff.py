"""Exact scalar arithmetic.

* :class:`FieldElem` -- the quadratic field Q(sqrt 2), stored as one
  canonical integer triple: ``(p, q, d)`` is ``(p + q*sqrt2)/d``.  This is
  the scalar of every algebra element: the kernel (:mod:`hopf_forge.ncalg`)
  stores terms as ``(word, k) -> FieldElem``, the coefficient of
  ``param**k * word``.  The contraction of so(2,2) onto the null-plane
  algebra introduces 1/sqrt(2) scale factors, so plain rationals are not
  enough, and ``sqrt2`` is a literal of the expression language.  A sum,
  product or negation builds its result in one frame, setting the canonical
  triple on a new object itself (a gcd only when the denominator is not 1).
* :class:`DeformationSeries` -- power series in a named formal parameter,
  truncated at a fixed order, over any coefficient with ring operations and
  ``is_zero``.  Algebra elements, operators and matrices hold graded terms,
  and the differential representation's w-series are closed forms; its one
  user is the Hamiltonian check of :mod:`hopf_forge.diffrep`, which
  multiplies P_- back by its denominator.  ``zero`` and ``+`` have no caller
  in the program and stay only because the benchmark tracer counts them.

A series stores ``terms``, the (degree, coefficient) pairs of its nonzero
coefficients in ascending degree.  Its arithmetic is plain accumulation into
a {degree: coefficient} dict, which :func:`series` turns back into terms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

_RATIONAL = (int, Fraction)  # rational operands; an int has a numerator and denominator too


def rat(num, den=1):
    """Exact rational number."""
    return Fraction(num, den)


class CoeffError(ArithmeticError):
    pass


class NonzeroConstantTerm(CoeffError):
    """exp() of a tensor with a param^0 term (its constant term in the
    deformation parameter is not zero), whose powers would not truncate."""


class NonInvertible(CoeffError):
    """Inverse of the zero element of Q(sqrt 2)."""


class ZeroDivisor(CoeffError):
    """Exact polynomial division by zero, or by a polynomial that does not divide."""


class FieldElem:
    """(p + q*sqrt(2))/d in Q(sqrt 2): ints, d > 0, gcd(p, q, d) == 1, so equal elements have
    equal triples.  ``FieldElem(a, b)`` is a + b*sqrt(2) for rationals a, b, which the ``a``
    and ``b`` properties return as Fractions.  Operations are int arithmetic and a gcd; a
    product with a factor exactly 1 (the triple ``(1, 0, 1)``) returns the other factor
    itself, with no new triple and no gcd, as no operation changes an element in place."""

    __slots__ = ("p", "q", "d")

    def __init__(self, a=0, b=0):
        a, b = Fraction(a), Fraction(b)
        d = lcm(a.denominator, b.denominator)  # the triple over it is coprime
        self.p, self.q, self.d = (a.numerator * (d // a.denominator),
                                  b.numerator * (d // b.denominator), d)

    a = property(lambda self: Fraction(self.p, self.d))
    b = property(lambda self: Fraction(self.q, self.d))

    def is_zero(self):
        return not self.p and not self.q

    def __bool__(self):
        return bool(self.p or self.q)

    def __eq__(self, other):
        if type(other) is FieldElem:
            return self.p == other.p and self.q == other.q and self.d == other.d
        if isinstance(other, _RATIONAL):
            return not self.q and self.p == other.numerator and self.d == other.denominator
        return NotImplemented

    def __hash__(self):  # that of the equal int or Fraction when q == 0
        if self.q:
            return hash((self.p, self.q, self.d))
        return hash(self.p) if self.d == 1 else hash(Fraction(self.p, self.d))

    def __add__(self, other):
        if type(other) is FieldElem:
            p2, q2, d2 = other.p, other.q, other.d
        elif isinstance(other, _RATIONAL):
            p2, q2, d2 = other.numerator, 0, other.denominator
        else:
            return NotImplemented
        d = self.d
        if d == d2:
            p, q = self.p + p2, self.q + q2
        else:
            p, q, d = self.p * d2 + p2 * d, self.q * d2 + q2 * d, d * d2
        if d != 1 and (g := gcd(p, q, d)) != 1:
            p, q, d = p // g, q // g, d // g
        e = object.__new__(FieldElem)
        e.p, e.q, e.d = p, q, d
        return e

    __radd__ = __add__

    def __neg__(self):
        e = object.__new__(FieldElem)
        e.p, e.q, e.d = -self.p, -self.q, self.d
        return e

    def __sub__(self, other):
        return self + -other if isinstance(other, (FieldElem, *_RATIONAL)) else NotImplemented

    def __rsub__(self, other):
        return -self + other if isinstance(other, _RATIONAL) else NotImplemented

    def __mul__(self, other):
        if type(other) is FieldElem:
            p1, q1, p2, q2 = self.p, self.q, other.p, other.q
            # a factor 1 gives the other factor itself, x * FE_ONE and FE_ONE * x alike
            if p2 == 1 and not q2 and other.d == 1 and self is not FE_ONE:
                return self
            if p1 == 1 and not q1 and self.d == 1:
                return other
            if q1 or q2:
                p, q = p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2
            else:
                p, q = p1 * p2, 0
            d = self.d * other.d
        elif isinstance(other, _RATIONAL):
            n = other.numerator
            p, q, d = self.p * n, self.q * n, self.d * other.denominator
        else:
            return NotImplemented
        if d != 1 and (g := gcd(p, q, d)) != 1:
            p, q, d = p // g, q // g, d // g
        e = object.__new__(FieldElem)
        e.p, e.q, e.d = p, q, d
        return e

    __rmul__ = __mul__

    def inverse(self):
        # (p + q*sqrt2)(p - q*sqrt2) = p^2 - 2 q^2 is nonzero as sqrt2 is irrational
        p, q, d = self.p, self.q, self.d
        n = p * p - 2 * q * q
        if not n:
            raise NonInvertible("zero element of Q(sqrt2)")
        return _canon(d * p, -d * q, n)

    def __truediv__(self, other):
        if type(other) is FieldElem:
            out = self * other.inverse()
            return FE_ONE if out == FE_ONE else out  # x / x is the canonical 1 too
        if not isinstance(other, _RATIONAL):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division of a Q(sqrt2) element by zero")
        n = other.denominator
        return _canon(self.p * n, self.q * n, self.d * other.numerator)

    def __rtruediv__(self, other):
        return self.inverse() * other if isinstance(other, _RATIONAL) else NotImplemented

    def __pow__(self, n):
        base, out = (self.inverse() if n < 0 else self), FE_ONE
        for bit in bin(abs(n))[2:]:  # square and multiply, from the top bit
            out = out * out * base if bit == "1" else out * out
        return out

    def __repr__(self):
        return f"FieldElem({self.a!s}, {self.b!s})"

    def __str__(self):
        a, b = self.a, self.b
        if not b:
            return str(a)
        sq = "sqrt2" if b == 1 else ("-sqrt2" if b == -1 else f"{b}*sqrt2")
        if not a:
            return sq
        return f"{a}+{sq}" if b > 0 else f"{a}{sq}"

    def as_quad(self):
        """[a_num, a_den, b_num, b_den] for serialization: p/d and q/d in
        lowest terms, read off the triple (d > 0, so each gcd is too)."""
        p, q, d = self.p, self.q, self.d
        g, h = gcd(p, d), gcd(q, d)
        return [p // g, d // g, q // h, d // h]

    @classmethod
    def from_quad(cls, quad):
        return cls(rat(*quad[:2]), rat(*quad[2:]))


def _make(p, q, d):
    """FieldElem of a triple already in canonical form."""
    e = FieldElem.__new__(FieldElem)
    e.p, e.q, e.d = p, q, d
    return e


def _canon(p, q, d):
    """FieldElem of (p + q*sqrt2)/d for any d != 0; a 1 is ``FE_ONE`` itself, so
    the ``is FE_ONE`` tests skip the unit that an inverse or a quotient gives."""
    g = gcd(p, q, d) if d > 0 else -gcd(p, q, d)
    p, q, d = p // g, q // g, d // g
    return FE_ONE if p == d == 1 and not q else _make(p, q, d)


FE_ZERO = FieldElem(0)
FE_ONE = FieldElem(1)
FE_SQRT2 = FieldElem(0, 1)
_SCALARS = (*_RATIONAL, FieldElem)  # what an element, tensor or polynomial is scaled by


def series(param, order, coeffs):
    """Series from a {degree: coefficient} dict: zeros and degrees above the
    order are dropped, the rest sorted into ``terms``."""
    s = DeformationSeries.__new__(DeformationSeries)
    s.param, s.order = param, order
    s.terms = tuple(sorted((d, c) for d, c in coeffs.items()
                           if d <= order and not c.is_zero()))
    return s


class DeformationSeries:
    """Power series in one named parameter, truncated beyond a fixed order.

    Built from the dense list of ``order + 1`` coefficients; only the nonzero
    ones are stored, as ``terms``.  A coefficient needs ring operations and
    ``is_zero``: a FieldElem, or the differential representation's Laurent
    coefficient.
    """

    __slots__ = ("param", "order", "terms")

    def __init__(self, param, order, coeffs):
        if order < 0:
            raise ValueError("series order must be >= 0")
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError("need exactly order+1 coefficients")
        self.param, self.order = param, order
        self.terms = tuple((d, c) for d, c in enumerate(coeffs) if not c.is_zero())

    @classmethod
    def zero(cls, param, order):
        return series(param, order, {})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, DeformationSeries):
            return NotImplemented
        return (self.param == other.param and self.order == other.order
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.param, self.order, self.terms))

    def __repr__(self):
        coeffs = dict(self.terms)
        dense = [str(coeffs[k]) if k in coeffs else "0" for k in range(self.order + 1)]
        return f"DeformationSeries({self.param!r}, {self.order}, {dense})"

    def _check(self, other):
        if self.param != other.param or self.order != other.order:
            raise ValueError(
                f"series mismatch: {self.param}^{self.order} vs {other.param}^{other.order}")

    def __add__(self, other):
        if not isinstance(other, DeformationSeries):
            return NotImplemented
        self._check(other)
        acc = dict(self.terms)
        for d, c in other.terms:
            acc[d] = acc[d] + c if d in acc else c
        return series(self.param, self.order, acc)

    def __mul__(self, other):
        if not isinstance(other, DeformationSeries):
            return NotImplemented
        self._check(other)
        acc = {}
        for d1, c1 in self.terms:
            for d2, c2 in other.terms:
                d = d1 + d2
                if d > self.order:
                    break
                acc[d] = acc[d] + c1 * c2 if d in acc else c1 * c2
        return series(self.param, self.order, acc)
