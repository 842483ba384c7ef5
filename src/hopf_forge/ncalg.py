"""Noncommutative-algebra kernel.

An :class:`AlgebraPresentation` is an ordered list of generators together with
one rewrite rule per out-of-order pair: the normal-ordered element equal to
``g_j * g_i`` for ``j > i``.  Elements are finite linear combinations of
normal-ordered words with truncated-series coefficients; products are computed
by confluent rewriting (the diamond check below verifies confluence on all
generator-triple overlaps, to the working truncation order).

Words are stored compressed as ``((gen_index, exponent), ...)`` with strictly
increasing generator indices; rewriting operates on flat index tuples.
Coefficients are any objects implementing the series protocol (add/sub/neg/
mul, ``is_zero``, ``val``); the stock choice is
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
    """Rewriting exceeded the step bound: the presentation is suspect."""


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


def compress(flat):
    out = []
    for g in flat:
        if out and out[-1][0] == g:
            out[-1][1] += 1
        else:
            out.append([g, 1])
    return tuple((g, e) for g, e in out)


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
        self._commuting = set()
        self._frozen = False
        self._nf_cache = {}

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
        swap_key = {}
        for (j, i), rhs in self.rules.items():
            if rhs is None:
                continue
            if (len(rhs.terms) == 1
                    and set(rhs.terms) == {((i, 1), (j, 1))}
                    and next(iter(rhs.terms.values())) == self.domain.one):
                swap_key[(j, i)] = True
        self._commuting = set(swap_key)
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
        one = self.domain.one
        out = {}
        work = {flat: one}
        steps = 0
        rules = self.rules
        commuting = self._commuting
        while work:
            w, c = work.popitem()
            if c.is_zero():
                continue
            # leftmost adjacent descent
            i = -1
            for k in range(len(w) - 1):
                if w[k] > w[k + 1]:
                    i = k
                    break
            if i < 0:
                key = compress(w)
                acc = out.get(key)
                out[key] = c if acc is None else acc + c
                continue
            pair = (w[i], w[i + 1])
            if pair in commuting:
                # if every inversion in the word is a trivially commuting
                # pair, the normal form is just the sorted word
                sortable = True
                for a in range(len(w) - 1):
                    wa = w[a]
                    for b in range(a + 1, len(w)):
                        if wa > w[b] and (wa, w[b]) not in commuting:
                            sortable = False
                            break
                    if not sortable:
                        break
                nw = tuple(sorted(w)) if sortable \
                    else w[:i] + (w[i + 1], w[i]) + w[i + 2:]
                acc = work.get(nw)
                work[nw] = c if acc is None else acc + c
                continue
            rule = rules.get(pair)
            if rule is None:
                gj, gi = self.generators[pair[0]], self.generators[pair[1]]
                raise MissingRule(f"no rule for {gj}*{gi} in {self.name}")
            steps += 1
            if steps > REWRITE_STEP_LIMIT:
                raise NonTerminating(
                    f"rewriting exceeded {REWRITE_STEP_LIMIT} steps in {self.name}")
            head, tail = w[:i], w[i + 2:]
            for m, rc in rule.terms.items():
                nw = head + flatten(m) + tail
                nc = c * rc
                if nc.is_zero():
                    continue
                acc = work.get(nw)
                work[nw] = nc if acc is None else acc + nc
        return {w: c for w, c in out.items() if not c.is_zero()}

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
        if isinstance(other, int):
            if other == 0:
                return self.algebra.zero()
            c = other
        else:
            c = other
        out = {}
        for w, s in self.terms.items():
            v = s * c
            if not v.is_zero():
                out[w] = v
        return NCElement(self.algebra, out)

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

    def scale_coeffs(self, f, domain=None):
        """Map every coefficient through ``f`` (dropping zeros)."""
        out = {}
        for w, c in self.terms.items():
            v = f(c)
            if not v.is_zero():
                out[w] = v
        if domain is None:
            return NCElement(self.algebra, out)
        raise AlgebraError("cross-domain maps must go through substitute()")

    def classical_limit(self):
        """Keep only the order-0 part of every coefficient."""
        return self.scale_coeffs(lambda c: c.truncate0())

    def substitute(self, target, images, coeff_map=None):
        """Multiplicative substitution homomorphism into ``target``.

        ``images`` maps generator names (or indices) of this algebra to
        NCElements of the target; ``coeff_map`` transports coefficients
        (defaults to identity, valid when both algebras share param/order).
        """
        img = {}
        for g, e in images.items():
            i = g if isinstance(g, int) else self.algebra.index[g]
            img[i] = e
        out = target.zero()
        for w, c in self.terms.items():
            piece = target.unit()
            for g, e in w:
                if g not in img:
                    raise UnmappedGenerator(
                        f"no image for generator {self.algebra.generators[g]}")
                for _ in range(e):
                    piece = piece * img[g]
            cc = coeff_map(c) if coeff_map else c
            out = out + piece * cc
        return out

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
                    c = c1 * c2
                    if v1 + c2.val() > n or c.is_zero():
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
        out = {}
        for w, s in self.terms.items():
            v = s * other
            if not v.is_zero():
                out[w] = v
        return TensorElement(self.algebra, self.arity, out)

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
            term = (term * self) * _int_inverse(self.algebra, k)
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

    def substitute(self, target, images, coeff_map=None):
        """Slot-wise substitution homomorphism into a tensor over ``target``."""
        img = {}
        for g, e in images.items():
            i = g if isinstance(g, int) else self.algebra.index[g]
            img[i] = e
        cache = {}

        def sub_word(w):
            e = cache.get(w)
            if e is None:
                e = target.unit()
                for g, k in w:
                    if g not in img:
                        raise UnmappedGenerator(
                            f"no image for generator {self.algebra.generators[g]}")
                    for _ in range(k):
                        e = e * img[g]
                cache[w] = e
            return e

        out = TensorElement.zero(target, self.arity)
        for ws, c in self.terms.items():
            cc = coeff_map(c) if coeff_map else c
            if cc.is_zero():
                continue
            piece = TensorElement.unit(target, self.arity)
            for s, w in enumerate(ws):
                e = sub_word(w)
                slot_tensor = TensorElement(
                    target, self.arity,
                    {tuple(wv if k == s else () for k in range(self.arity)): cv
                     for wv, cv in e.terms.items()})
                piece = piece * slot_tensor
            out = out + piece * cc
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


def _int_inverse(algebra, k):
    """1/k as a coefficient of the algebra's domain."""
    return algebra.domain.one / k


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
