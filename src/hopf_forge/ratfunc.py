"""Commutative multivariate polynomials and rational functions over Q(sqrt2).

Used in two places: rational-function coefficients of the momentum-space
differential operators, and the pseudo-orthogonality ideal of the Lorentz
coordinates (Buchberger closure + reduction).  Monomials are compared in
graded-lexicographic order with the ring's variable list fixing the
lexicographic priority (first variable strongest).

:func:`groebner` skips the S-pairs that Buchberger's two criteria prove
reduce to zero: the product criterion (coprime leading monomials) and the
chain criterion (some third leading monomial divides the pair's lcm and both
of its pairs with the third member are already treated; Buchberger, EUROSAM
1979, LNCS 72).
"""

from __future__ import annotations

import heapq

from .coeff import FE_ONE, FE_ZERO, FieldElem, NonInvertible, ZeroDivisor, rat


class PolyRing:
    """A polynomial ring: an ordered tuple of commuting variable names."""

    __slots__ = ("vars", "index")

    def __init__(self, variables):
        self.vars = tuple(variables)
        self.index = {v: i for i, v in enumerate(self.vars)}

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.vars == other.vars

    def __hash__(self):
        return hash(self.vars)

    def __repr__(self):
        return f"PolyRing{self.vars}"

    @property
    def nvars(self):
        return len(self.vars)

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(FE_ONE)

    def constant(self, c):
        if isinstance(c, int):
            c = FieldElem(c)
        if c.is_zero():
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, name):
        e = [0] * self.nvars
        e[self.index[name]] = 1
        return Polynomial(self, {tuple(e): FE_ONE})

    def monomial(self, exps, c=FE_ONE):
        if isinstance(c, int):
            c = FieldElem(c)
        if c.is_zero():
            return Polynomial(self, {})
        return Polynomial(self, {tuple(exps): c})


def _grlex(e):
    return (sum(e), e)


class Polynomial:
    """Sparse multivariate polynomial with FieldElem coefficients."""

    __slots__ = ("ring", "terms", "_lead")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}
        self._lead = None

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        return self.terms.get((0,) * self.ring.nvars, FE_ZERO)

    def degree_in(self, i):
        return max((e[i] for e in self.terms), default=0)

    def leading(self):
        """(exponent, coefficient) of the graded-lex leading term (cached)."""
        if self._lead is None:
            e = max(self.terms, key=_grlex)
            self._lead = e, self.terms[e]
        return self._lead

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __add__(self, other):
        if isinstance(other, (int, FieldElem)):
            other = self.ring.constant(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, FieldElem)):
            other = self.ring.constant(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            out[e] = -c if s is None else s - c
        return Polynomial(self.ring, out)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, FieldElem)):
            return Polynomial(self.ring, {e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e)
                p = c1 * c2
                out[e] = p if s is None else s + p
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = self.ring.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def scale(self, c):
        return self * c

    def monic(self):
        if self.is_zero():
            return self
        _, lc = self.leading()
        return self * lc.inverse()

    def derivative(self, name):
        i = self.ring.index[name]
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                ne = list(e)
                ne[i] -= 1
                out[tuple(ne)] = c * e[i]
        return Polynomial(self.ring, out)

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for e in sorted(self.terms, key=_grlex, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{p}" if p > 1 else v
                for v, p in zip(self.ring.vars, e) if p)
            bits.append(f"({c}){'*' + mono if mono else ''}")
        return " + ".join(bits)


def _exp_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _exp_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _exp_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def reduce_poly(p, basis):
    """Full normal form of ``p`` modulo a list of polynomials.

    Repeatedly cancels the largest term divisible by a basis leading term;
    with a Groebner basis this is a sound zero test for ideal membership.
    """
    lead = [b.leading() + (b,) for b in basis if not b.is_zero()]
    if not lead:
        return p
    remainder = {}
    work = dict(p.terms)
    # max-heap of the exponents in ``work`` by graded-lex order; a cancelled
    # term only adds smaller ones, so a popped exponent never comes back
    heap = [_heap_key(e) for e in work]
    heapq.heapify(heap)
    while heap:
        e = heapq.heappop(heap)[2]
        c = work.pop(e)
        if c.is_zero():
            continue
        for le, lc, b in lead:
            if _exp_divides(le, e):
                # cancel c*x^e against (c/lc)*x^(e-le) * b
                q = c / lc
                shift = _exp_sub(e, le)
                for be, bc in b.terms.items():
                    if be == le:
                        continue
                    ne = tuple(x + y for x, y in zip(be, shift))
                    s = work.get(ne)
                    if s is None:
                        work[ne] = -(q * bc)
                        heapq.heappush(heap, _heap_key(ne))
                    else:
                        work[ne] = s - q * bc
                break
        else:
            remainder[e] = c
    return Polynomial(p.ring, remainder)


def _heap_key(e):
    return (-sum(e), tuple(-x for x in e), e)


def _spoly(f, g):
    ef, cf = f.leading()
    eg, cg = g.leading()
    l = _exp_lcm(ef, eg)
    mf = f.ring.monomial(_exp_sub(l, ef), cf.inverse())
    mg = g.ring.monomial(_exp_sub(l, eg), cg.inverse())
    return mf * f - mg * g


def groebner(gens):
    """Reduced Groebner basis (graded-lex) of the ideal generated by ``gens``.

    Buchberger's algorithm with the normal selection strategy (pairs by the
    degree of their lcm).  A pair is reduced unless the product or the chain
    criterion shows that its S-polynomial reduces to zero.
    """
    basis = [g.monic() for g in gens if not g.is_zero()]
    lead = [b.leading()[0] for b in basis]
    heap = []
    done = set()  # pairs (i, j), i < j, already taken off the heap

    def push_pairs(k):
        for i in range(k):
            heapq.heappush(heap, (sum(_exp_lcm(lead[i], lead[k])), i, k))

    def chain(i, j, l):
        """Some other member's lead divides ``l`` and both its pairs with i
        and j are treated: S(i, j) then reduces to zero (Buchberger 1979)."""
        return any(
            k != i and k != j and _exp_divides(lead[k], l)
            and (min(i, k), max(i, k)) in done and (min(j, k), max(j, k)) in done
            for k in range(len(basis)))

    for k in range(len(basis)):
        push_pairs(k)
    while heap:
        _, i, j = heapq.heappop(heap)
        done.add((i, j))
        ei, ej = lead[i], lead[j]
        l = _exp_lcm(ei, ej)
        if l == tuple(a + b for a, b in zip(ei, ej)) or chain(i, j, l):
            continue
        r = reduce_poly(_spoly(basis[i], basis[j]), basis)
        if not r.is_zero():
            basis.append(r.monic())
            lead.append(basis[-1].leading()[0])
            push_pairs(len(basis) - 1)
    # minimalize: drop members whose leading term another one divides
    keep = []
    for i, b in enumerate(basis):
        e = b.leading()[0]
        if any(_exp_divides(basis[j].leading()[0], e)
               for j in range(len(basis)) if j != i and
               (j < i or basis[j].leading()[0] != e)):
            continue
        keep.append(b)
    # tail-reduce each member against the others
    out = []
    for i, b in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        r = reduce_poly(b, others) if others else b
        if not r.is_zero():
            out.append(r.monic())
    out.sort(key=lambda q: _grlex(q.leading()[0]))
    return out


# -- gcd -------------------------------------------------------------------

def _exact_div(f, d):
    """Exact polynomial quotient f/d; raises ZeroDivisor if not divisible."""
    if d.is_zero():
        raise ZeroDivisor("polynomial division by zero")
    ring = f.ring
    work = dict(f.terms)
    le, lc = d.leading()
    out = {}
    while work:
        e = max(work, key=_grlex)
        c = work.pop(e)
        if c.is_zero():
            continue
        if not _exp_divides(le, e):
            raise ZeroDivisor("not an exact polynomial quotient")
        q = c / lc
        qe = _exp_sub(e, le)
        out[qe] = out.get(qe, FE_ZERO) + q
        for be, bc in d.terms.items():
            if be == le:
                continue
            ne = tuple(x + y for x, y in zip(be, qe))
            work[ne] = work.get(ne, FE_ZERO) - q * bc
    return Polynomial(ring, out)


def _to_univar(p, i):
    """View p as univariate in variable i: {deg: Polynomial in other vars}."""
    sub = PolyRing(p.ring.vars[:i] + p.ring.vars[i + 1:])
    out = {}
    for e, c in p.terms.items():
        d = e[i]
        rest = e[:i] + e[i + 1:]
        out.setdefault(d, {})[rest] = c
    return {d: Polynomial(sub, t) for d, t in out.items()}, sub


def _from_univar(ring, i, coeffs):
    out = {}
    for d, poly in coeffs.items():
        for e, c in poly.terms.items():
            full = e[:i] + (d,) + e[i:]
            out[full] = c
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
    (me,) = mono.terms
    acc = me
    for e in other.terms:
        acc = tuple(min(a, b) for a, b in zip(acc, e))
        if not any(acc):
            break
    return mono.ring.monomial(acc)


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


class RationalFunction:
    """Quotient of polynomials, kept gcd-reduced with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, reduce=True):
        if den is None:
            den = num.ring.one()
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = num.ring.one()
        elif reduce:
            g = poly_gcd(num, den)
            if not g.is_constant():
                num = _exact_div(num, g)
                den = _exact_div(den, g)
            _, lc = den.leading()
            if lc != FE_ONE:
                inv = lc.inverse()
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p):
        return cls(p, None, reduce=False)

    @classmethod
    def constant(cls, ring, c):
        return cls(ring.constant(c), None, reduce=False)

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.den - other.num * self.den,
                                self.den * other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return RationalFunction(-self.num, self.den, reduce=False)

    def __mul__(self, other):
        other = self._coerce(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            if other == 0:
                raise ZeroDivisionError
            return RationalFunction(self.num * FieldElem(rat(1, other)),
                                    self.den, reduce=False)
        other = self._coerce(other)
        return self * other.inverse()

    def inverse(self):
        if self.num.is_zero():
            raise NonInvertible("inverse of the zero rational function")
        return RationalFunction(self.den, self.num)

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction.from_poly(other)
        if isinstance(other, (int, FieldElem)):
            return RationalFunction.constant(self.num.ring, other)
        raise TypeError(f"cannot combine RationalFunction with {type(other)!r}")

    def derivative(self, name):
        n = self.num.derivative(name) * self.den - self.num * self.den.derivative(name)
        return RationalFunction(n, self.den * self.den)

    def __repr__(self):
        if self.den.is_constant() and self.den.constant_value() == FE_ONE:
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"
