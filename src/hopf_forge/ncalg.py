"""Noncommutative-algebra kernel.

An :class:`AlgebraPresentation` is an ordered list of generators together with
one rewrite rule per out-of-order pair: the normal-ordered element equal to
``g_j * g_i`` for ``j > i``.  Elements are finite linear combinations of
normal-ordered words with truncated-series coefficients; products are computed
by confluent rewriting (the diamond check below verifies confluence on all
generator-triple overlaps, to the working truncation order).

Words are stored compressed as ``((gen_index, exponent), ...)`` with strictly
increasing generator indices.  A flat word (a tuple of generator indices) is
normal-ordered by a left fold that multiplies a ``{normal word: coeff}``
accumulator by one generator at a time.  For a normal word ``u = rest*h`` and a
generator ``g < h``, the rule for ``h*g`` is applied once and each of its terms
folded onto ``rest``; the result (the leftmost-descent normal form of ``u*g``)
is kept in a per-presentation table, so no subword product is derived twice.
Missing entries are filled on an explicit stack, not by recursion.  The table
and the flat-word cache receive only complete results, so an abort leaves them
consistent, and every stored coefficient is interned (the caches hold many
copies of few distinct values).  An entry holds ``u*g`` for any coefficient, so
a rewriting of ``u*g`` that needs ``u*g`` again is a :class:`NonTerminating`
cycle, even if truncation would have dropped every term that comes back.

A map given on generators (a coproduct, counit or antipode, a substitution, a
representation) is extended to words and elements by one :class:`WordMap`.

Coefficients are any hashable objects implementing the series protocol (add/
sub/neg/mul, ``is_zero``, ``val``); the stock choice is
:class:`~hopf_forge.coeff.DeformationSeries`.
"""

from __future__ import annotations

from .coeff import DeformationSeries, Domain

REWRITE_STEP_LIMIT = 10 ** 6


class AlgebraError(Exception):
    pass


class AlgebraMismatch(AlgebraError):
    """Operands belong to different presentations."""


class NonTerminating(AlgebraError):
    """Rewriting exceeded the step bound or cycled (``u*g`` needed ``u*g``,
    even with a positive power of the parameter): the presentation is suspect."""


class UnmappedGenerator(AlgebraError):
    """A substitution map is missing a generator that occurs in the input."""


class ArityMismatch(AlgebraError):
    """Tensor operands of incompatible arity."""


class MissingRule(AlgebraError):
    """Rewriting hit a pair for which no rule is installed."""


def flatten(word):
    out = []
    for g, e in word:
        out.extend([g] * e)
    return tuple(out)


def word_sort_key(word):
    """Graded-lexicographic key on compressed words."""
    flat = flatten(word)
    return (len(flat), flat)


class AlgebraPresentation:
    """Generators with a fixed total order plus pairwise rewrite rules."""

    def __init__(self, name, generators, param, order, domain=None):
        self.name = name
        self.generators = tuple(generators)
        self.param = param
        self.order = order
        self.domain = domain if domain is not None else _series_domain(param, order)
        self.index = {g: i for i, g in enumerate(self.generators)}
        self.rules = {}
        self._frozen = False
        self._nf_cache = {}
        self._table = {}  # (normal word u, generator g) -> normal form of u*g
        self._interned = {self.domain.one: self.domain.one}  # coeff -> stored copy
        self._misses = 0

    def __repr__(self):
        return f"<algebra {self.name}: {' < '.join(self.generators)}; order {self.order}>"

    # -- construction ------------------------------------------------------

    def set_rules(self, rules):
        """Install the rewrite rules {(j, i): element equal to g_j*g_i}, j > i."""
        if self._frozen:
            raise AlgebraError("presentation already frozen")
        n = len(self.generators)
        for j in range(n):
            for i in range(j):
                if (j, i) not in rules:
                    raise AlgebraError(
                        f"missing rule for {self.generators[j]}*{self.generators[i]}")
        for (j, i), rhs in rules.items():
            if rhs is not None:
                for w in rhs.terms:
                    if any(a >= b for (a, _), (b, _) in zip(w, w[1:])):
                        raise AlgebraError("rule right-hand side not normal ordered")
        self.rules = dict(rules)
        self._frozen = True

    # -- element constructors ----------------------------------------------

    def zero(self):
        return NCElement(self, {})

    def unit(self, coeff=None):
        return NCElement(self, {(): coeff if coeff is not None else self.domain.one})

    def gen(self, g):
        i = g if isinstance(g, int) else self.index[g]
        return NCElement(self, {((i, 1),): self.domain.one})

    def element(self, terms):
        """Element from {word: coeff} with already normal-ordered words."""
        for w in terms:
            if any(a >= b for (a, _), (b, _) in zip(w, w[1:])):
                raise AlgebraError(f"word {w} is not normal ordered")
        return NCElement(self, {w: c for w, c in terms.items() if not c.is_zero()})

    def scalar(self, series):
        return NCElement(self, {(): series} if not series.is_zero() else {})

    # -- the rewriting engine ------------------------------------------------

    def normal_form_of_word(self, flat):
        """Normal form of a product of generators, as {word: coeff}; cached."""
        hit = self._nf_cache.get(flat)
        if hit is None:
            hit = self._rewrite(flat)
            self._nf_cache[flat] = hit
        return hit

    def _rewrite(self, flat):
        """Left fold of ``flat`` through the word-times-generator table."""
        self._misses = 0
        acc = {(): self.domain.one}
        for g in flat:
            acc = self._times(acc, g)
        intern = self._interned.setdefault
        return {w: intern(c, c) for w, c in acc.items()}

    def _times(self, acc, g):
        """``acc * g`` for ``acc`` a {normal word: coeff} dict."""
        one = self.domain.one
        table = self._table
        out = {}
        for u, c in acc.items():
            if not u or u[-1][0] < g:
                entry = ((u + ((g, 1),), one),)
            elif u[-1][0] == g:
                entry = ((u[:-1] + ((g, u[-1][1] + 1),), one),)
            else:
                entry = table.get((u, g))
                if entry is None:
                    entry = self._fill((u, g))
            for w, rc in entry:
                # the unit needs no product: inline appends and swap rules carry it
                v = c if rc is one else rc if c is one else c * rc
                if v.is_zero():
                    continue
                s = out.get(w)
                if s is not None:
                    v = s + v
                    if v.is_zero():
                        del out[w]
                        continue
                out[w] = v
        return out

    def _fill(self, key):
        """Table entry for ``key``, filling first every missing entry it needs.

        Entries in progress are :meth:`_entry_steps` generators on an explicit
        stack, so the Python stack does not grow with word length."""
        stack = {}  # key in progress -> its generator; the last one is on top
        need = key
        while True:
            if need is not None:
                if need in stack:
                    raise NonTerminating(f"rewriting cycles in {self.name}")
                self._misses += 1
                if self._misses > REWRITE_STEP_LIMIT:
                    raise NonTerminating(
                        f"rewriting exceeded {REWRITE_STEP_LIMIT} steps in {self.name}")
                stack[need] = self._entry_steps(*need)
            need = next(stack[next(reversed(stack))], None)
            if need is None:  # the top entry is complete and in the table
                stack.popitem()
                if not stack:
                    return self._table[key]

    def _entry_steps(self, u, g):
        """Store the normal form of ``u*g`` (last generator of ``u`` above ``g``),
        yielding each missing table key it needs for :meth:`_fill` to fill."""
        h, e = u[-1]
        rule = self.rules.get((h, g))
        if rule is None:
            gj, gi = self.generators[h], self.generators[g]
            raise MissingRule(f"no rule for {gj}*{gi} in {self.name}")
        rest = u[:-1] + ((h, e - 1),) if e > 1 else u[:-1]
        table = self._table
        total = {}
        for m, rc in rule.terms.items():
            part = {rest: rc}
            for x in flatten(m):
                for w in part:
                    if w and w[-1][0] > x and (w, x) not in table:
                        yield w, x
                part = self._times(part, x)
            for w, c in part.items():
                s = total.get(w)
                total[w] = c if s is None else s + c
        intern = self._interned.setdefault
        table[(u, g)] = tuple((w, intern(c, c)) for w, c in total.items() if not c.is_zero())

    def normalize_terms(self, raw):
        """Normal form of an iterable of (flat_word, coeff) pairs."""
        out = {}
        for flat, c in raw:
            if c.is_zero():
                continue
            for w, rc in self.normal_form_of_word(flat).items():
                v = rc * c
                if v.is_zero():
                    continue
                acc = out.get(w)
                s = v if acc is None else acc + v
                if s.is_zero():
                    out.pop(w, None)
                else:
                    out[w] = s
        return out

    def normalize(self, raw):
        """Public normalize: raw (flat_word, coeff) pairs -> NCElement."""
        return NCElement(self, self.normalize_terms(raw))

    # -- checks --------------------------------------------------------------

    def consistency_check(self, residual_filter=None):
        """Diamond-lemma overlap check on every generator triple.

        Resolving ``g_k g_j g_i`` by first rewriting ``g_k g_j`` must agree
        with first rewriting ``g_j g_i``; with an optional residual filter the
        comparison runs modulo a constraint ideal.
        """
        from .report import CheckReport
        failures = []
        n = len(self.generators)
        for k in range(n):
            for j in range(k):
                for i in range(j):
                    gk, gj, gi = self.gen(k), self.gen(j), self.gen(i)
                    left = (gk * gj) * gi
                    right = gk * (gj * gi)
                    res = left - right
                    if residual_filter is not None:
                        res = residual_filter(res)
                    if not res.is_zero():
                        trip = "*".join(self.generators[t] for t in (k, j, i))
                        failures.append({"input": trip, "residual": repr(res)})
        return CheckReport(check="consistency", algebra=self.name,
                           order=self.order, failures=failures)


def _series_domain(param, order):
    return Domain(DeformationSeries.zero(param, order),
                  DeformationSeries.one(param, order),
                  f"series[{param}]^{order}")


class WordMap:
    """A map given by the images of generators, extended to words and elements.

    ``images`` maps generator names (or indices) of ``algebra`` to values in
    any target with ``*`` and ``+``, whose ``unit`` and ``zero`` are given.  A
    normal word goes to the product of its generator images, left to right
    (right to left when ``reverse``, for an anti-homomorphism), cached per
    word; an element goes to the sum of its word images times its
    coefficients.
    """

    def __init__(self, algebra, images, unit, zero, reverse=False):
        self.algebra = algebra
        self.images = {algebra.index.get(g, g): v for g, v in images.items()}
        self.unit = unit
        self.zero = zero
        self.reverse = reverse
        self._cache = {}

    def word(self, word):
        out = self._cache.get(word)
        if out is None:
            out = self.unit
            for g, e in reversed(word) if self.reverse else word:
                img = self.images.get(g)
                if img is None:
                    raise UnmappedGenerator(
                        f"no image for generator {self.algebra.generators[g]}")
                for _ in range(e):
                    out = out * img
            self._cache[word] = out
        return out

    def __call__(self, x):
        out = self.zero
        for w, c in x.terms.items():
            out = out + self.word(w) * c
        return out


class NCElement:
    """Linear combination of normal-ordered words over series coefficients."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = terms

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise AlgebraMismatch(
                f"{self.algebra.name} element combined with {other.algebra.name} element")

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, NCElement):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __add__(self, other):
        if isinstance(other, int):
            other = self.algebra.unit() * other
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            acc = out.get(w)
            s = c if acc is None else acc + c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        return NCElement(self.algebra, out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.algebra.unit() * other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return NCElement(self.algebra, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, NCElement):
            self._check(other)
            alg = self.algebra
            n = alg.order
            raw = []
            for w1, c1 in self.terms.items():
                v1 = c1.val()
                f1 = flatten(w1)
                for w2, c2 in other.terms.items():
                    if v1 + c2.val() > n:
                        continue
                    raw.append((f1 + flatten(w2), c1 * c2))
            return NCElement(alg, alg.normalize_terms(raw))
        # scalar: int or coefficient value
        return self.scale_coeffs(lambda c: c * other)

    def __rmul__(self, other):
        # scalars commute with everything; true element products use __mul__
        return self * other

    def __pow__(self, n):
        out = self.algebra.unit()
        for _ in range(n):
            out = out * self
        return out

    def commutator(self, other):
        return self * other - other * self

    def scale_coeffs(self, f):
        """Map every coefficient through ``f`` (dropping zeros)."""
        out = {}
        for w, c in self.terms.items():
            v = f(c)
            if not v.is_zero():
                out[w] = v
        return NCElement(self.algebra, out)

    def classical_limit(self):
        """Keep only the order-0 part of every coefficient."""
        return self.scale_coeffs(lambda c: c.truncate0())

    def substitute(self, target, images):
        """Multiplicative substitution homomorphism into ``target``.

        ``images`` maps generator names (or indices) of this algebra to
        NCElements of the target; coefficients pass unchanged, so both
        algebras must share param and order.
        """
        return WordMap(self.algebra, images, target.unit(), target.zero())(self)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: word_sort_key(t[0]))

    def coefficient(self, word):
        return self.terms.get(word, self.algebra.domain.zero)

    def __repr__(self):
        from .expr import render_element
        return render_element(self, "text")

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        alg = self.algebra
        terms = []
        for w, c in self.sorted_terms():
            terms.append({
                "word": [[alg.generators[g], e] for g, e in w],
                "coeff": [fe.as_quad() for fe in c.coeffs],
            })
        return {"terms": terms}

    @classmethod
    def from_dict(cls, algebra, data):
        from .coeff import FieldElem
        terms = {}
        for t in data["terms"]:
            w = tuple((algebra.index[g], e) for g, e in t["word"])
            c = DeformationSeries.from_coeffs(
                [FieldElem.from_quad(q) for q in t["coeff"]],
                algebra.param, algebra.order)
            if not c.is_zero():
                terms[w] = c
        return cls(algebra, terms)


class TensorElement:
    """k-fold tensor products of normal-ordered words (k = 2 or 3)."""

    __slots__ = ("algebra", "arity", "terms")

    def __init__(self, algebra, arity, terms):
        self.algebra = algebra
        self.arity = arity
        self.terms = terms

    @classmethod
    def unit(cls, algebra, arity):
        return cls(algebra, arity, {((),) * arity: algebra.domain.one})

    @classmethod
    def zero(cls, algebra, arity):
        return cls(algebra, arity, {})

    def _check(self, other):
        if self.algebra is not other.algebra:
            raise AlgebraMismatch("tensor operands from different algebras")
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return (self.algebra is other.algebra and self.arity == other.arity
                and self.terms == other.terms)

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            acc = out.get(w)
            s = c if acc is None else acc + c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        return TensorElement(self.algebra, self.arity, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TensorElement(self.algebra, self.arity,
                             {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, TensorElement):
            self._check(other)
            alg = self.algebra
            n = alg.order
            nf = alg.normal_form_of_word
            out = {}
            for ws1, c1 in self.terms.items():
                v1 = c1.val()
                for ws2, c2 in other.terms.items():
                    if v1 + c2.val() > n:
                        continue
                    c = c1 * c2
                    if c.is_zero():
                        continue
                    # slot-wise normal forms, then distribute
                    partial = [((), c)]
                    for s in range(self.arity):
                        nfs = nf(flatten(ws1[s]) + flatten(ws2[s]))
                        nxt = []
                        for words, cc in partial:
                            for w, rc in nfs.items():
                                v = cc * rc
                                if not v.is_zero():
                                    nxt.append((words + (w,), v))
                        partial = nxt
                        if not partial:
                            break
                    for words, cc in partial:
                        acc = out.get(words)
                        s2 = cc if acc is None else acc + cc
                        if s2.is_zero():
                            out.pop(words, None)
                        else:
                            out[words] = s2
            return TensorElement(self.algebra, self.arity, out)
        return self.scale_coeffs(lambda c: c * other)

    __rmul__ = __mul__

    def commutator(self, other):
        return self * other - other * self

    def flip(self, perm=None):
        """Permute tensor slots; default is the arity-2 swap."""
        if perm is None:
            if self.arity != 2:
                raise ArityMismatch("default flip needs arity 2")
            perm = (1, 0)
        if len(perm) != self.arity:
            raise ArityMismatch("permutation length != arity")
        out = {}
        for ws, c in self.terms.items():
            key = tuple(ws[p] for p in perm)
            acc = out.get(key)
            out[key] = c if acc is None else acc + c
        return TensorElement(self.algebra, self.arity, out)

    def embed(self, slots, arity=3):
        """Embed into a higher arity, placing slot s at position slots[s]."""
        slots = tuple(slots)
        if len(slots) != self.arity or len(set(slots)) != self.arity:
            raise ArityMismatch("embedding slots must be distinct, one per slot")
        if any(s >= arity for s in slots):
            raise ArityMismatch("embedding slot out of range")
        out = {}
        for ws, c in self.terms.items():
            key = [()] * arity
            for s, pos in enumerate(slots):
                key[pos] = ws[s]
            out[tuple(key)] = c
        return TensorElement(self.algebra, arity, out)

    def exp(self):
        """Tensor exponential; the unit-word coefficient must vanish."""
        unit_key = ((),) * self.arity
        c0 = self.terms.get(unit_key)
        if c0 is not None and not c0.is_zero():
            from .coeff import NonzeroConstantTerm
            raise NonzeroConstantTerm("tensor exp with nonzero constant term")
        out = TensorElement.unit(self.algebra, self.arity)
        term = out
        for k in range(1, self.algebra.order + 1):
            term = (term * self) * (self.algebra.domain.one / k)
            if term.is_zero():
                break
            out = out + term
        return out

    def scale_coeffs(self, f):
        out = {}
        for w, c in self.terms.items():
            v = f(c)
            if not v.is_zero():
                out[w] = v
        return TensorElement(self.algebra, self.arity, out)

    def classical_limit(self):
        return self.scale_coeffs(lambda c: c.truncate0())

    def substitute(self, target, images):
        """Slot-wise substitution homomorphism into a tensor over ``target``:
        the outer product of the slot images, which are already normal."""
        sub = WordMap(self.algebra, images, target.unit(), target.zero())
        out = TensorElement.zero(target, self.arity)
        for ws, c in self.terms.items():
            piece = {(): c}
            for w in ws:
                piece = {key + (u,): pc * uc for key, pc in piece.items()
                         for u, uc in sub.word(w).terms.items()}
            out = out + TensorElement(target, self.arity,
                                      {k: v for k, v in piece.items() if not v.is_zero()})
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda t: tuple(word_sort_key(w) for w in t[0]))

    def to_dict(self):
        alg = self.algebra
        terms = []
        for ws, c in self.sorted_terms():
            terms.append({
                "word": [[[alg.generators[g], e] for g, e in w] for w in ws],
                "coeff": [fe.as_quad() for fe in c.coeffs],
            })
        return {"arity": self.arity, "terms": terms}

    def __repr__(self):
        from .expr import render_tensor
        return render_tensor(self, "text")


def tensor_pair(x, y):
    """x (x) y for NCElements of the same algebra (no normalization needed)."""
    if x.algebra is not y.algebra:
        raise AlgebraMismatch("tensor factors from different algebras")
    out = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            c = c1 * c2
            if not c.is_zero():
                key = (w1, w2)
                acc = out.get(key)
                out[key] = c if acc is None else acc + c
    return TensorElement(x.algebra, 2, out)


def tensor_of(algebra, pairs):
    """Sum of x_i (x) y_i."""
    out = TensorElement.zero(algebra, 2)
    for x, y in pairs:
        out = out + tensor_pair(x, y)
    return out
