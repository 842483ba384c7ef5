"""Commutative multivariate polynomials over Q(sqrt2), and Laurent coefficients.

Used in two places: the coefficients of the momentum-space differential
operators (:class:`Laurent`, a polynomial over a power of the ring's first
variable; it has no inverse, as no w-series over it is divided), and the
pseudo-orthogonality ideal of the Lorentz coordinates (Buchberger closure +
reduction).  Monomials are compared in graded-lexicographic order with the
ring's variable list fixing the lexicographic priority (first variable
strongest).

A monomial is one packed int (Monagan and Pearce, CASC 2007, LNCS 4770):
the total degree in the top field and one 16-bit field per variable below
it, the first variable highest.  Int order is then graded-lex order, a
product is ``a + b``, and "a divides b" is one guard-bit test.  Only
:meth:`PolyRing.pack` and :meth:`PolyRing.unpack` build or read exponent
tuples.  Every exponent, and the total degree, must stay below 2**15
(:data:`MAX_DEGREE`): packing a larger one, or multiplying polynomials whose
total degrees sum to more, raises :class:`OverflowError` rather than let a
field carry into its neighbour.

:func:`groebner` skips the S-pairs that Buchberger's two criteria prove
reduce to zero: the product criterion (coprime leading monomials) and the
chain criterion (a third leading monomial divides the pair's lcm and both of
its pairs are treated; Buchberger, EUROSAM 1979, LNCS 72).  :func:`reduce_poly`
takes a basis prepared once by :func:`leads`, which ``groebner`` grows with it.

No stored coefficient is zero.  Results that are zero-free by construction
(negation, nonzero scaling, derivatives, sums that drop a cancelled key,
remainders) skip the constructor's filtering copy (``Polynomial._zero_free``).

:func:`poly_gcd` (a primitive remainder sequence) has no caller in the
program: a Laurent coefficient's denominator is a power of one variable, so
no arithmetic of this module takes a gcd.  It stays, with its helpers, only
because the benchmark tracer counts it.
"""
from __future__ import annotations

import heapq
import struct

from .coeff import _SCALARS, FE_ONE, FE_ZERO, FieldElem, ZeroDivisor

FIELD_BITS = 16
FIELD_MASK = (1 << FIELD_BITS) - 1
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1  # bit 15 of each field is a guard bit


class PolyRing:
    """A polynomial ring: an ordered tuple of commuting variable names.

    A packed monomial is the big-endian array of 16-bit fields
    ``[degree, e_0, ..., e_{n-1}]`` read as one int.  ``shift[i]`` is the
    bit offset of variable i's field, ``dshift`` that of the total degree;
    ``guard`` has bit 15 of every variable field set.
    """

    __slots__ = ("vars", "index", "shift", "dshift", "guard", "_fields")

    def __init__(self, variables):
        self.vars = tuple(variables)
        self.index = {v: i for i, v in enumerate(self.vars)}
        n = len(self.vars)
        self.shift = tuple(FIELD_BITS * (n - 1 - i) for i in range(n))
        self.dshift = FIELD_BITS * n
        self.guard = sum(1 << (s + FIELD_BITS - 1) for s in self.shift)
        self._fields = struct.Struct(f">{n + 1}H")

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.vars == other.vars

    def __hash__(self):
        return hash(self.vars)

    def __repr__(self):
        return f"PolyRing{self.vars}"

    @property
    def nvars(self):
        return len(self.vars)

    def pack(self, exps):
        """The packed monomial of an exponent sequence (one entry per variable)."""
        degree = sum(exps)
        if degree > MAX_DEGREE:
            raise OverflowError(f"total degree {degree} exceeds {MAX_DEGREE}")
        try:
            raw = self._fields.pack(degree, *exps)
        except struct.error:
            raise ValueError(f"bad exponents {tuple(exps)} for {self!r}") from None
        return int.from_bytes(raw, "big")

    def unpack(self, m):
        """The exponent tuple of a packed monomial."""
        return self._fields.unpack(m.to_bytes(self._fields.size, "big"))[1:]

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(FE_ONE)

    def constant(self, c):
        return self.monomial((0,) * self.nvars, c)

    def var(self, name):
        e = [0] * self.nvars
        e[self.index[name]] = 1
        return self.monomial(e)

    def monomial(self, exps, c=FE_ONE):
        if not isinstance(c, FieldElem):
            c = FieldElem(c)
        return Polynomial(self, {self.pack(exps): c})


def _degree_of_fields(m):
    """Total degree of a packed monomial with no degree field, whose fields
    sum below 2**16 - 1: as 2**16 is 1 modulo 2**16 - 1, the int is the sum
    of its fields modulo 2**16 - 1."""
    return m % FIELD_MASK


def _field_min(a, b, guard):
    """Per-field minimum of two packed monomials without degree fields."""
    ge = ((a | guard) - b) & guard          # guard bit set where a_i >= b_i
    pick = ge - (ge >> (FIELD_BITS - 1))    # low 15 bits set in those fields
    return (b & pick) | (a & ~pick)


def _divides(a, b, guard):
    """Packed monomial ``a`` divides ``b``: no field of ``(b | guard) - a``
    borrows its guard bit."""
    return ((b | guard) - a) & guard == guard


def _exp_lcm(ring, a, b):
    """Per-variable maximum of two packed monomials of ``ring``."""
    vmask = (1 << ring.dshift) - 1
    a &= vmask
    b &= vmask
    low = _field_min(a, b, ring.guard)
    m = a + b - low
    return m | (_degree_of_fields(m) << ring.dshift)


class Polynomial:
    """Sparse multivariate polynomial: {packed monomial: FieldElem}."""

    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}
        self._lead = None

    @classmethod
    def _zero_free(cls, ring, terms):
        """``terms`` as they are, not copied: the caller knows no coefficient is zero."""
        p = object.__new__(cls)
        p.ring, p.terms, p._lead = ring, terms, None
        return p

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not any(self.terms)

    def degree_in(self, i):
        s = self.ring.shift[i]
        return max(((e >> s) & FIELD_MASK for e in self.terms), default=0)

    def leading(self):
        """(packed monomial, coefficient) of the graded-lex leading term (cached)."""
        if self._lead is None:
            e = max(self.terms)
            self._lead = e, self.terms[e]
        return self._lead

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __add__(self, other, minus=False):
        if not isinstance(other, Polynomial):
            if not isinstance(other, _SCALARS):
                return NotImplemented
            other = self.ring.constant(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            if s is not None:
                c = s - c if minus else s + c
            elif minus:
                c = -c
            if c.is_zero():  # a cancelled key goes, so the result is zero-free
                del out[e]
            else:
                out[e] = c
        return Polynomial._zero_free(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, minus=True)

    def __rsub__(self, other):
        return (-self) + other if isinstance(other, _SCALARS) else NotImplemented

    def __neg__(self):
        return Polynomial._zero_free(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if not isinstance(other, _SCALARS):
                return NotImplemented
            return Polynomial._zero_free(
                self.ring, {e: c * other for e, c in self.terms.items()} if other else {})
        if not self.terms or not other.terms:
            return Polynomial(self.ring, {})
        # the leading monomial of the product is the sum of the leading ones
        degree = (max(self.terms) + max(other.terms)) >> self.ring.dshift
        if degree > MAX_DEGREE:
            raise OverflowError(f"product of total degree {degree} exceeds {MAX_DEGREE}")
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = out.get(e)
                p = c1 if c2 is FE_ONE else c2 if c1 is FE_ONE else c1 * c2
                out[e] = p if s is None else s + p
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        """``self**n`` by repeated squaring; no square after the top bit."""
        if n < 0:
            raise ValueError(f"negative exponent {n}: a polynomial power needs n >= 0")
        out, base = self.ring.one(), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def monic(self):
        if self.is_zero():
            return self
        _, lc = self.leading()
        return self * lc.inverse()

    def derivative(self, name):
        ring = self.ring
        s = ring.shift[ring.index[name]]
        unit = (1 << s) | (1 << ring.dshift)
        out = {}
        for e, c in self.terms.items():
            k = (e >> s) & FIELD_MASK
            if k:
                out[e - unit] = c * k
        return Polynomial._zero_free(ring, out)

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{p}" if p > 1 else v
                for v, p in zip(self.ring.vars, self.ring.unpack(e)) if p)
            bits.append(f"({c}){'*' + mono if mono else ''}")
        return " + ".join(bits)


def leads(basis):
    """A basis prepared for :func:`reduce_poly`: per nonzero member, its
    leading monomial, the inverse of its leading coefficient and its other
    terms negated, as ``(monomial, coefficient)`` pairs."""
    return [(le, lc.inverse(), [(e, -c) for e, c in b.terms.items() if e != le])
            for b in basis if b.terms for le, lc in (b.leading(),)]


def reduce_poly(p, lead):
    """Full normal form of ``p`` modulo a basis prepared by :func:`leads`.

    Repeatedly cancels the largest term divisible by a basis leading term;
    with a Groebner basis this is a sound zero test for ideal membership.
    """
    if not lead:
        return p
    g = p.ring.guard
    remainder = {}
    work = dict(p.terms)
    # min-heap of the negated monomials in ``work``; a cancelled term only
    # adds smaller ones, so a popped monomial never comes back
    heap = [-e for e in work]
    heapq.heapify(heap)
    while heap:
        e = -heapq.heappop(heap)
        c = work.pop(e)
        if c.is_zero():
            continue
        eg = e | g
        for le, inv, tail in lead:
            if (eg - le) & g == g:  # _divides(le, e, g), inlined
                # cancel c*x^e against (c/lc)*x^(e-le) * member
                q = c * inv
                shift = e - le
                for be, bc in tail:
                    ne = be + shift
                    s = work.get(ne)
                    if s is None:
                        work[ne] = q * bc
                        heapq.heappush(heap, -ne)
                    else:
                        work[ne] = s + q * bc
                break
        else:
            remainder[e] = c
    return Polynomial._zero_free(p.ring, remainder)


def _spoly(f, g):
    ring = f.ring
    ef, cf = f.leading()
    eg, cg = g.leading()
    l = _exp_lcm(ring, ef, eg)
    mf = Polynomial(ring, {l - ef: cf.inverse()})
    mg = Polynomial(ring, {l - eg: cg.inverse()})
    return mf * f - mg * g


def groebner(gens):
    """Reduced Groebner basis (graded-lex) of the ideal generated by ``gens``.

    Buchberger's algorithm with the normal selection strategy (pairs by the
    degree of their lcm).  A pair is reduced unless the product or the chain
    criterion shows that its S-polynomial reduces to zero.
    """
    basis = [g.monic() for g in gens if not g.is_zero()]
    if not basis:
        return []
    ring = basis[0].ring
    guard, ds = ring.guard, ring.dshift
    prepared = leads(basis)  # grows with ``basis``
    lead = [e for e, _, _ in prepared]
    heap = []
    done = set()  # pairs (i, j), i < j, already taken off the heap

    def push_pairs(k):
        for i in range(k):
            heapq.heappush(heap, (_exp_lcm(ring, lead[i], lead[k]) >> ds, i, k))

    for k in range(len(basis)):
        push_pairs(k)
    while heap:
        _, i, j = heapq.heappop(heap)
        done.add((i, j))
        l = _exp_lcm(ring, lead[i], lead[j])
        if l == lead[i] + lead[j]:
            continue
        # chain criterion: a third lead divides l and both its pairs are treated
        lg = l | guard
        for k, ek in enumerate(lead):
            if ((lg - ek) & guard == guard and k != i and k != j
                    and ((k, i) if k < i else (i, k)) in done
                    and ((k, j) if k < j else (j, k)) in done):
                break
        else:
            r = reduce_poly(_spoly(basis[i], basis[j]), prepared)
            if not r.is_zero():
                basis.append(r.monic())
                prepared += leads(basis[-1:])
                lead.append(prepared[-1][0])
                push_pairs(len(basis) - 1)
    # minimalize: drop members whose leading term another one divides
    keep = []
    for i, e in enumerate(lead):
        if any(_divides(lead[j], e, guard)
               for j in range(len(basis)) if j != i and (j < i or lead[j] != e)):
            continue
        keep.append(basis[i])
    # tail-reduce each member against the others
    out = []
    kept = leads(keep)
    for i, b in enumerate(keep):
        r = reduce_poly(b, kept[:i] + kept[i + 1:])
        if not r.is_zero():
            out.append(r.monic())
    out.sort(key=lambda q: q.leading()[0])
    return out


# -- gcd -------------------------------------------------------------------

def _exact_div(f, d):
    """Exact polynomial quotient f/d; raises ZeroDivisor if not divisible."""
    if d.is_zero():
        raise ZeroDivisor("polynomial division by zero")
    ring = f.ring
    guard = ring.guard
    le, lc = d.leading()
    if len(d.terms) == 1:
        # a one-term divisor only shifts every monomial
        if not all(_divides(le, e, guard) for e in f.terms):
            raise ZeroDivisor("not an exact polynomial quotient")
        return Polynomial(ring, {e - le: c / lc for e, c in f.terms.items()})
    work = dict(f.terms)
    out = {}
    while work:
        e = max(work)
        c = work.pop(e)
        if c.is_zero():
            continue
        if not _divides(le, e, guard):
            raise ZeroDivisor("not an exact polynomial quotient")
        q = c / lc
        qe = e - le
        out[qe] = out.get(qe, FE_ZERO) + q
        for be, bc in d.terms.items():
            if be == le:
                continue
            ne = be + qe
            work[ne] = work.get(ne, FE_ZERO) - q * bc
    return Polynomial(ring, out)


def _to_univar(p, i):
    """View p as univariate in variable i: {deg: Polynomial in other vars}."""
    ring = p.ring
    sub = PolyRing(ring.vars[:i] + ring.vars[i + 1:])
    out = {}
    for m, c in p.terms.items():
        e = ring.unpack(m)
        out.setdefault(e[i], {})[sub.pack(e[:i] + e[i + 1:])] = c
    return {d: Polynomial(sub, t) for d, t in out.items()}, sub


def _from_univar(ring, i, coeffs):
    out = {}
    for d, poly in coeffs.items():
        for m, c in poly.terms.items():
            e = poly.ring.unpack(m)
            out[ring.pack(e[:i] + (d,) + e[i:])] = c
    return Polynomial(ring, out)


def _monomial_gcd_part(f, g):
    """gcd when at least one argument is a single term."""
    mono = None
    other = None
    if len(f.terms) == 1:
        mono, other = f, g
    elif len(g.terms) == 1:
        mono, other = g, f
    if mono is None:
        return None
    ring = mono.ring
    vmask = (1 << ring.dshift) - 1
    (acc,) = mono.terms
    acc &= vmask
    for e in other.terms:
        acc = _field_min(acc, e & vmask, ring.guard)
        if not acc:
            break
    return Polynomial(ring, {acc | (_degree_of_fields(acc) << ring.dshift): FE_ONE})


def poly_gcd(f, g):
    """gcd of two polynomials over Q(sqrt2), normalized monic (graded-lex)."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if f.is_constant() or g.is_constant():
        return f.ring.one()
    m = _monomial_gcd_part(f, g)
    if m is not None:
        return m
    # pick the first variable appearing in either argument as the main one
    main = next(i for i in range(f.ring.nvars)
                if f.degree_in(i) or g.degree_in(i))
    fu, sub = _to_univar(f, main)
    gu, _ = _to_univar(g, main)
    if max(fu) == 0 and max(gu) == 0:
        inner = poly_gcd(fu[0], gu[0])
        return _from_univar(f.ring, main, {0: inner}).monic()

    def content(u):
        acc = sub.zero()
        for c in u.values():
            acc = poly_gcd(acc, c)
            if acc.is_constant() and not acc.is_zero():
                return sub.one()
        return acc

    def primitive(u, cont):
        if cont.is_constant():
            return dict(u)
        return {d: _exact_div(c, cont) for d, c in u.items()}

    cf, cg = content(fu), content(gu)
    a = primitive(fu, cf)
    b = primitive(gu, cg)
    cont_gcd = poly_gcd(cf, cg)

    def prem(u, v):
        """Pseudo-remainder of u by v in the main variable."""
        dv = max(v)
        lv = v[dv]
        u = dict(u)
        while u and max(u) >= dv:
            du = max(u)
            lu = u[du]
            u = {d: c * lv for d, c in u.items()}
            for d, c in v.items():
                nd = d + du - dv
                u[nd] = u.get(nd, sub.zero()) - c * lu
            u = {d: c for d, c in u.items() if not c.is_zero()}
        return u

    # primitive Euclidean sequence in the main variable
    while b:
        r = prem(a, b)
        if not r:
            a = b
            break
        a, b = b, primitive(r, content(r))
    result = _from_univar(f.ring, main, a)
    cont_lift = _from_univar(f.ring, main, {0: cont_gcd})
    return (result * cont_lift).monic()


def _vpow(ring, k):
    """The first variable of ``ring`` to the power ``k``."""
    return ring.monomial((k,) + (0,) * (ring.nvars - 1))


class Laurent:
    """``num / v**shift`` for ``v`` the first variable of ``num``'s ring and
    ``shift >= 0``: a polynomial whose only poles are in ``v``.

    Invariant: ``shift == 0`` or ``v`` does not divide ``num`` (a zero
    numerator has shift 0), so equal values have equal fields.  Sums,
    products and derivatives shift packed exponents and take no gcd.
    """

    __slots__ = ("num", "shift")

    def __init__(self, num, shift=0):
        if shift:
            if shift < 0:
                raise ValueError(f"negative shift {shift}: the denominator is v**shift")
            # cancel the power of v that divides every term, up to ``shift``
            s = num.ring.shift[0]
            k = min(min(((e >> s) & FIELD_MASK for e in num.terms), default=shift), shift)
            if k:
                unit = (k << s) | (k << num.ring.dshift)
                num = Polynomial._zero_free(num.ring, {e - unit: c for e, c in num.terms.items()})
                shift -= k
        self.num, self.shift = num, shift

    def is_zero(self):
        return not self.num.terms

    def __eq__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.shift == other.shift and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.shift))

    def _over(self, top):
        """The numerator of this value written over ``v**top``, ``top >= shift``."""
        k, num, ring = top - self.shift, self.num, self.num.ring
        if not k or not num.terms:
            return num
        if (max(num.terms) >> ring.dshift) + k > MAX_DEGREE:
            raise OverflowError(f"numerator over v^{top} has total degree above {MAX_DEGREE}")
        unit = (k << ring.shift[0]) | (k << ring.dshift)
        return Polynomial._zero_free(ring, {e + unit: c for e, c in num.terms.items()})

    def __add__(self, other):
        if not isinstance(other, Laurent):
            if not isinstance(other, _SCALARS):
                return NotImplemented
            other = Laurent(self.num.ring.constant(other))
        top = max(self.shift, other.shift)
        return Laurent(self._over(top) + other._over(top), top)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other if isinstance(other, (Laurent, *_SCALARS)) else NotImplemented

    def __rsub__(self, other):
        return (-self) + other if isinstance(other, _SCALARS) else NotImplemented

    def __neg__(self):
        return Laurent(-self.num, self.shift)

    def __mul__(self, other):
        """Product with a Laurent value or a scalar (int, Fraction or FieldElem)."""
        if isinstance(other, Laurent):
            return Laurent(self.num * other.num, self.shift + other.shift)
        return (Laurent(self.num * other, self.shift) if isinstance(other, _SCALARS)
                else NotImplemented)

    __rmul__ = __mul__

    def derivative(self, name):
        num, s = self.num, self.shift
        if s and name == num.ring.vars[0]:
            # (num / v^s)' = (num' v - s num) / v^(s+1)
            return Laurent(num.derivative(name) * _vpow(num.ring, 1) - num * s, s + 1)
        return Laurent(num.derivative(name), s)

    def __repr__(self):
        if not self.shift:
            return repr(self.num)
        return f"({self.num!r})/({_vpow(self.num.ring, self.shift)!r})"
