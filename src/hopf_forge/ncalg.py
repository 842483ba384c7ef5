"""Noncommutative-algebra kernel.

An :class:`AlgebraPresentation` is an ordered list of generators together with
one rewrite rule per out-of-order pair: the normal-ordered element equal to
``g_j * g_i`` for ``j > i``.  Elements are finite linear combinations of
normal-ordered words times powers of the deformation parameter: ``terms`` maps
``(word, k)`` to the nonzero scalar in front of ``param**k * word``, for
``0 <= k <= order`` (tensors map ``(words, k)``, one word per slot).  A product
adds the powers and skips a pair of terms whose powers sum above the order
before any scalar is multiplied.  Products are computed by confluent rewriting
(the diamond check below verifies confluence on all generator-triple overlaps,
to the working truncation order).

Words are stored compressed as ``((gen_index, exponent), ...)`` with strictly
increasing generator indices.  Everything is normal-ordered by a left fold that
multiplies a ``{(normal word, k): scalar}`` accumulator by one block ``g**e`` at
a time.  A term whose word does not end above ``g`` takes the whole block in
one step: it appends the block or raises its last exponent.  Any other term
moves past one ``g`` through a per-presentation table of normal forms of
``u*g`` (``(word, k, scalar)`` entries), and what it gives takes the rest of
the block.  For ``u = v*h**e`` with ``v`` not empty and ``e > 1`` the entry
is ``v`` folded by each term of the power-pair entry ``h**e * g``, which lives
in the same table and is shared by every prefix ``v`` (the power-pair
multiplication tables of Plural); otherwise it is the rule for ``h*g`` folded
onto ``u`` less one ``h`` (at ``e = 1`` the pair entry is the rule itself).
So no subword product is derived twice, and a prefix does not derive a high
power again.  Missing entries are filled on an explicit stack, not by
recursion.

An element product ``x * y`` folds through that table directly
(:meth:`AlgebraPresentation.fold`): for each term of ``y`` the terms of ``x``,
scaled and shifted by it (truncated to the order), take the term's blocks
one at a time, and like terms merge after every step.  Both factors are
already normal, so no concatenated flat word is built and the table is the
only memo a product reads.  The expression parser folds each product term the
same way.  A sum of folds by many words (:meth:`AlgebraPresentation.fold_sum`)
folds each shared suffix once, on the merged terms of every word that ends
with it.
Flat words from outside (the slots of a tensor product,
:meth:`AlgebraPresentation.normalize`) go through
:meth:`AlgebraPresentation.normal_form_of_word`, whose cache keeps each flat
word's normal form.  The table and that cache receive only complete results,
so an abort leaves them consistent; every entry of either is in ascending
power of the parameter, so a fold or ``normalize`` stops at the first term
above the order, and every stored scalar is interned under its integer triple
(the caches hold many copies of few distinct values; wherever two graded terms
multiply, a factor that *is* ``FE_ONE`` is skipped by identity).  Every stored
word is interned too: a per-presentation dict maps each normal word to the one
tuple that entries keep, so a fold's fresh copy of a word is freed once its
entry is stored.  The words that a fold only passes through are not interned,
as that dict lookup would cost more time than the copies cost memory.  The
step bound counts the table entries filled for one product, one flat word, one
parsed product term or one ``fold_sum``, power-pair entries included.

Elements, tensors and the operators of :mod:`hopf_forge.diffrep` share one
arithmetic, :class:`Graded`: equality, sums, one-pass differences, negation,
scaling and the one-dict commutator are written once over the graded terms,
and each kind adds its own product.  The residuals of :mod:`hopf_forge.rmat`
sum a difference of products into one dict the same way.

An entry holds ``u*g`` for any power of the parameter, so a rewriting of
``u*g`` that needs ``u*g`` again is a :class:`NonTerminating` cycle, even if
truncation would have dropped every term that comes back; so is one of
``v*h**e * g`` that needs the pair entry ``h**e * g`` it is built from.

A tensor product visits only the pairs of terms that fit under the order: for
each power of a left term it walks the right terms with room for it, one list
per distinct room, in the right factor's own order.  Each slot's normal form
is fetched once per distinct (left word, right word) pair of one product, in a
dict that ends with the product; the flat-word cache is the only memo of
normal forms that outlives it.  A pair whose joined word is already normal (a
slot word empty, or the left word's last generator not above the right word's
first) is that word, with no normal-form lookup; it is interned in the same
dict as the stored words, so every term of the product that joins it keeps one
tuple.  When every slot of a pair joins to one unit term at power 0, the
pair's key is added at once; only the slots whose normal form rewrites go
through a list of ``(words, k, scalar)`` partial terms.

A presentation keeps one more memo, for output: each normal word's
graded-lex sort key and its text and latex spelling (``A^2*B``, ``A^{2} B``,
from the ``latex_names`` given to the constructor), made the first time
:meth:`AlgebraPresentation.word_entry` sees the word.  ``by_word`` and
``to_dict`` sort by those keys and the renderers of :mod:`hopf_forge.expr`
read the spellings, so no word is flattened or joined again; ``to_dict``
builds each word's ``[[name, e], ...]`` list anew, so a document shares no
list with the presentation or with another document.  This memo and the dict
of interned words hold only tuples, strings and ints, no element, so the
presentation is still freed by reference counting.

A map given on generators (a coproduct, counit or antipode, a substitution, a
representation) is extended to words and elements by one :class:`WordMap`.
Each word image is built from the cached image of its prefix (its suffix for
an anti-homomorphism) times one generator image; an element's scaled word
images are summed in place.  A product takes an order budget ``top`` (the order
when None) and drops every power above it, and an image is built only to the
order its caller can use and kept with that order: ``param**k * w`` needs
``w``'s image to the order less ``k``, as no stored power is negative.  Every
check that such a map respects the commutation rules reads each rule's two
sides off one :func:`rule_images`.

Every truncated exponential -- the exp(c*param*X(x)Y) factors of a universal
R, the e^{2zA_+}, (e^{2wP_+}-1)/2w and e^{zP}cosh(zP_0) structure functions,
a parsed ``exp(...)`` and :meth:`TensorElement.exp` -- is one
:func:`exp_series`: sum_b y^b/b! param^(b+shift) for an element or tensor y.

Every scalar is a :class:`~hopf_forge.coeff.FieldElem` of Q(sqrt 2); the
contraction's eps bookkeeping is read off the graded keys, not stored in the
scalars (see :mod:`hopf_forge.contraction`).
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter

from .coeff import _SCALARS, FE_ONE, FE_ZERO, FieldElem, NonzeroConstantTerm

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


def _is_normal(word):
    return all(a < b for (a, _), (b, _) in zip(word, word[1:]))


def add_term(out, key, v):
    """``out[key] += v``, dropping the key when the sum cancels."""
    s = out.get(key)
    if s is None:
        out[key] = v
    else:
        s = s + v
        if s.is_zero():
            del out[key]
        else:
            out[key] = s


def sub_term(out, key, v):
    """``out[key] -= v``, dropping the key when the difference cancels."""
    s = out.get(key)
    if s is None:
        out[key] = -v
    elif s == v:
        del out[key]
    else:
        out[key] = s - v


def _scaled_terms(terms, c, k, top):
    """Every term times the scalar ``c`` and ``param**k``, up to degree ``top``."""
    if c is FE_ONE:
        return {(w, j + k): v for (w, j), v in terms.items() if j + k <= top}
    out = {}
    for (w, j), v in terms.items():
        if j + k <= top:
            v = v * c
            if not v.is_zero():
                out[(w, j + k)] = v
    return out


def _by_word(terms, sort_key):
    """Graded terms back to one coefficient series per word: a list of
    ``(word, ((k, scalar), ...))`` in ``sort_key`` order of the words, with
    ascending ``k``."""
    grouped = {}
    for (w, k), c in terms.items():
        grouped.setdefault(w, []).append((k, c))
    for s in grouped.values():
        s.sort()  # k is unique per word, so no two scalars are ever compared
    return [(w, tuple(grouped[w])) for w in sorted(grouped, key=sort_key)]


def _dense_quads(series, order):
    """The serialized coefficient list of one word: ``order + 1`` quads, a
    zero quad at each absent power."""
    quads = [[0, 1, 0, 1] for _ in range(order + 1)]
    for k, c in series:
        quads[k] = c.as_quad()
    return quads


class AlgebraPresentation:
    """Generators with a fixed total order plus pairwise rewrite rules."""

    def __init__(self, name, generators, param, order, latex_names=None):
        self.name = name
        self.generators = tuple(generators)
        self.param = param
        self.order = order
        self.latex_names = dict(latex_names or {})  # generator -> latex name, if not itself
        self.index = {g: i for i, g in enumerate(self.generators)}
        self._rules = {}  # (j, i) -> graded terms of g_j*g_i, or None for no rule
        self._frozen = False
        self._nf_cache = {}
        self._table = {}  # (normal word u, generator g) -> normal form of u*g
        self._interned = {}  # scalar's (p, q, d) -> stored copy
        self._shared = {}  # normal word -> the one tuple of it that entries keep
        self._misses = 0
        self._words = {}  # normal word -> (graded-lex key, text spelling, latex spelling)

    def __repr__(self):
        return f"<algebra {self.name}: {' < '.join(self.generators)}; order {self.order}>"

    # -- the word memo -------------------------------------------------------

    def word_entry(self, word):
        """``(graded-lex key, text spelling, latex spelling)`` of a normal word,
        made on its first use and kept; the spellings read like ``A^2*B`` and
        ``A^{2} B``."""
        entry = self._words.get(word)
        if entry is None:
            names = self.generators
            latex = [self.latex_names.get(n, n) for n in names]
            entry = self._words[word] = (
                word_sort_key(word),
                "*".join(names[g] if e == 1 else f"{names[g]}^{e}" for g, e in word),
                " ".join(latex[g] if e == 1 else f"{latex[g]}^{{{e}}}" for g, e in word))
        return entry

    def word_key(self, word):
        """Graded-lex sort key of a normal word, from :meth:`word_entry`."""
        return self.word_entry(word)[0]

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
        for rhs in rules.values():
            if rhs is not None and not all(_is_normal(w) for w, _ in rhs.terms):
                raise AlgebraError("rule right-hand side not normal ordered")
        self._rules = {key: None if rhs is None else rhs.terms for key, rhs in rules.items()}
        self._frozen = True

    @property
    def rules(self):
        """The rewrite rules {(j, i): element equal to g_j*g_i}, built on each
        access: the presentation keeps only their graded terms, so it holds no
        element of itself and no reference cycle keeps it alive."""
        return {key: None if t is None else NCElement(self, t)
                for key, t in self._rules.items()}

    def set_commutators(self, comm):
        """Install the rules from one commutator per pair, ``{(a, b): [g_a, g_b]}``:
        g_j*g_i = g_i*g_j - [g_i, g_j] for i < j."""
        rules = {}
        for (a, b), c in comm.items():
            i, j = min(a, b), max(a, b)
            swap = self.element({(((i, 1), (j, 1)), 0): FE_ONE})
            rules[(j, i)] = swap - c if a < b else swap + c
        self.set_rules(rules)

    # -- element constructors ----------------------------------------------

    def zero(self):
        return NCElement(self, {})

    def unit(self):
        return NCElement(self, {((), 0): FE_ONE})

    def gen(self, g):
        i = g if isinstance(g, int) else self.index[g]
        return NCElement(self, {(((i, 1),), 0): FE_ONE})

    def element(self, terms):
        """Element from {(word, k): scalar} with already normal-ordered words;
        powers above the order are dropped."""
        for w, _ in terms:
            if not _is_normal(w):
                raise AlgebraError(f"word {w} is not normal ordered")
        return NCElement(self, {(w, k): c for (w, k), c in terms.items()
                                if k <= self.order and not c.is_zero()})

    def scalar(self, c, k=0):
        """The scalar ``c * param**k`` as an element."""
        return self.element({((), k): c})

    # -- the rewriting engine ------------------------------------------------

    def normal_form_of_word(self, flat):
        """Normal form of a product of generators, as ``(word, k, scalar)``
        entries; cached."""
        hit = self._nf_cache.get(flat)
        if hit is None:
            hit = self._rewrite(flat)
            self._nf_cache[flat] = hit
        return hit

    def _rewrite(self, flat):
        """Left fold of ``flat``, one run of equal generators at a time."""
        word = [(g, sum(1 for _ in run)) for g, run in groupby(flat)]
        self._misses = 0
        return self._stored(self.fold({((), 0): FE_ONE}, word))

    def fold(self, terms, word, top=None):
        """``terms`` times the compressed ``word`` up to ``param**top``: the
        {(normal word, k): scalar} dict takes the word's blocks ``g**e`` one at a
        time, left to right, and a new dict is returned (``terms`` itself when
        ``word`` is empty).  The table entries filled count toward the step
        bound; a caller that begins a new product sets ``_misses`` to zero first."""
        for g, e in word:
            terms = self._times(terms, g, e, top)
        return terms

    def fold_sum(self, groups):
        """The sum of ``fold(terms, word)`` over ``groups = {word: terms}`` as one
        product (one step count), by Horner's rule over the words' suffixes: all
        that ends with a suffix ``g*s`` is merged into one dict, which takes ``g``
        once and is merged into the dict of ``s``.  Each term still takes its own
        word's generators left to right, so the sum is that of the separate folds,
        confluent rules or not.  The dicts of ``groups`` are merged into in place."""
        self._misses = 0
        by_len = {}  # suffix length -> {suffix: terms that still have to take it}
        for w, terms in groups.items():
            by_len.setdefault(sum(e for _, e in w), {})[w] = terms
        for n in range(max(by_len, default=0), 0, -1):
            into = by_len.setdefault(n - 1, {})
            for s, terms in by_len.pop(n, {}).items():
                g, e = s[0]
                s = ((g, e - 1),) + s[1:] if e > 1 else s[1:]
                acc, have = self._times(terms, g), into.get(s)
                if have is not None:
                    if len(have) > len(acc):  # sum the smaller into the larger
                        acc, have = have, acc
                    for key, c in have.items():
                        add_term(acc, key, c)
                into[s] = acc
        return by_len.get(0, {}).get((), {})

    def _stored(self, terms):
        """``terms`` as ``(word, k, scalar)`` entries in ascending ``k`` (a stable
        sort, so like powers keep their order), each word and scalar interned."""
        intern = self._interned.setdefault
        share = self._shared.setdefault
        return tuple(sorted(((share(w, w), k, intern((c.p, c.q, c.d), c))
                             for (w, k), c in terms.items()), key=itemgetter(1)))

    def _times(self, acc, g, e=1, top=None):
        """``acc * g**e`` up to ``param**top``, ``acc`` a {(normal word, k): scalar} dict."""
        out = {}
        while acc:
            acc = self._step(acc, g, e, out, top)
            e -= 1
        return out

    def _step(self, acc, g, e, out, top=None):
        """Sum ``acc * g**e`` up to ``param**top`` into ``out`` as far as one step
        goes.  A term whose word does not end above ``g`` takes the whole block
        at once; any other term moves past one ``g`` through the (full) table.
        Returns the terms that still have to take ``g**(e-1)`` (none at e = 1)."""
        one = FE_ONE
        top = self.order if top is None else top
        table = self._table
        carry = {} if e > 1 else out
        for (u, k), c in acc.items():
            if not u or u[-1][0] < g:
                entry = ((u + ((g, e),), 0, one),)
                dst = out
            elif u[-1][0] == g:
                entry = ((u[:-1] + ((g, u[-1][1] + e),), 0, one),)
                dst = out
            else:
                entry = table.get((u, g))
                if entry is None:
                    entry = self._fill((u, g))
                dst = carry
            for w, rk, rc in entry:
                kk = k + rk
                if kk > top:  # entries ascend in power: the rest are above too
                    break
                # the unit needs no product: inline appends and swap rules carry it
                v = c if rc is one else rc if c is one else c * rc
                key = (w, kk)
                s = dst.get(key)
                if s is not None:
                    v = s + v
                    if not (v.p or v.q):
                        del dst[key]
                        continue
                dst[key] = v
        return carry if e > 1 else {}

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
        yielding each missing table key it needs for :meth:`_fill` to fill.

        For ``u = v*h**e`` with ``v`` not empty and ``e > 1``, that is ``v``
        times each term of the power-pair entry ``h**e * g``, which every such
        ``v`` shares; otherwise ``u`` less one ``h`` times each term of the rule
        for ``h*g``."""
        h, e = u[-1]
        table = self._table
        if e > 1 and len(u) > 1:
            pair = (u[-1:], g)
            if pair not in table:
                yield pair
            terms = table[pair]
            rest = u[:-1]
        else:
            rule = self._rules.get((h, g))
            if rule is None:
                gj, gi = self.generators[h], self.generators[g]
                raise MissingRule(f"no rule for {gj}*{gi} in {self.name}")
            terms = [(m, rk, rc) for (m, rk), rc in rule.items()]
            rest = u[:-1] + ((h, e - 1),) if e > 1 else u[:-1]
        total = {}
        for m, rk, rc in terms:
            part = {(rest, rk): rc}
            for x, ex in m:
                out = {}
                while part:
                    for w, _ in part:
                        if w and w[-1][0] > x and (w, x) not in table:
                            yield w, x
                    part = self._step(part, x, ex, out)
                    ex -= 1
                part = out
            for key, c in part.items():
                add_term(total, key, c)
        table[(u, g)] = self._stored(total)

    def normalize(self, raw):
        """Normal form of an iterable of ``(flat_word, k, scalar)`` triples, as
        an element."""
        top = self.order
        out = {}
        for flat, k, c in raw:
            if c.is_zero():
                continue
            for w, rk, rc in self.normal_form_of_word(flat):
                if k + rk > top:
                    break
                add_term(out, (w, k + rk), rc * c)
        return NCElement(self, out)

    # -- checks --------------------------------------------------------------

    def consistency_check(self):
        """Diamond-lemma overlap check on every generator triple.

        Resolving ``g_k g_j g_i`` by first rewriting ``g_k g_j`` must agree
        with first rewriting ``g_j g_i``.
        """
        from .report import CheckReport
        rep = CheckReport(check="consistency", algebra=self.name, order=self.order)
        n = len(self.generators)
        for k in range(n):
            for j in range(k):
                for i in range(j):
                    gk, gj, gi = self.gen(k), self.gen(j), self.gen(i)
                    rep.expect_zero("*".join(self.generators[t] for t in (k, j, i)),
                                    (gk * gj) * gi - gk * (gj * gi))
        return rep


class WordMap:
    """A map given by the images of generators, extended to words and elements.

    ``images`` maps generator names (or indices) of ``algebra`` to values of
    one :class:`Graded` kind, whose ``unit`` is given (``zero`` is it scaled
    by 0).  A normal word goes to the product of its generator images, left to
    right (right to left when ``reverse``, for an anti-homomorphism): the
    cached image of the word less its last generator (its first when
    ``reverse``) times that generator's image, each shorter word on the way
    cached too.  An element goes to the sum of its word images, each scaled by
    its scalar, the image of ``param**k * w`` built to the order less ``k``.

    ``word(w, top)`` is built by products truncated at ``param**top`` and kept
    with that order: a request up to it reuses the image, a higher one rebuilds
    from the longest prefix cached high enough."""

    def __init__(self, algebra, images, unit, reverse=False):
        self.algebra = algebra
        self.images = {algebra.index.get(g, g): v for g, v in images.items()}
        self.unit = unit
        self.zero = unit.scaled(FE_ZERO)
        self.reverse = reverse
        self._cache = {}  # normal word -> (image, the order it is exact to)

    def word(self, word, top=None):
        """The image of a normal word, exact up to ``param**top`` (the order if None)."""
        top = self.unit.order if top is None else top
        # walk back to the longest prefix cached to ``top``, then multiply
        # forward; loops, so a word of any degree needs no deeper Python stack
        pending = []
        hit = self._cache.get(word)
        while (hit is None or hit[1] < top) and word:
            g, e = word[0] if self.reverse else word[-1]
            rest = ((g, e - 1),) if e > 1 else ()
            pending.append((word, g))
            word = rest + word[1:] if self.reverse else word[:-1] + rest
            hit = self._cache.get(word)
        out = self.unit if hit is None else hit[0]  # the empty word is never cached
        for word, g in reversed(pending):
            img = self.images.get(g)
            if img is None:
                raise UnmappedGenerator(
                    f"no image for generator {self.algebra.generators[g]}")
            out._check(img)
            out = out._new(out._mul_into(img, {}, top))
            self._cache[word] = (out, top)
        return out

    def __call__(self, x):
        out = self.zero._new({})  # a new value of the target, summed into in place
        order = out.order
        for (w, k), c in x.terms.items():
            for key, v in self.word(w, order - k).scaled(c, k).terms.items():
                add_term(out.terms, key, v)
        return out


def rule_images(m):
    """``((j, i), [m(g_j), m(g_i)], m([g_j, g_i]))`` for each rule ``g_j*g_i``
    of the :class:`WordMap` ``m``'s algebra, ``j`` ascending, then ``i < j``;
    a generator with no image raises :class:`UnmappedGenerator`."""
    gen = m.algebra.gen
    for j in range(len(m.algebra.generators)):
        for i in range(j):
            comm = m.word(((j, 1),)).commutator(m.word(((i, 1),)))
            yield (j, i), comm, m(gen(j).commutator(gen(i)))


class Graded:
    """The arithmetic of every value stored as graded terms ``{(key, k): c}``,
    ``c`` the nonzero coefficient of ``param**k`` times ``key``: an element, a
    tensor, a differential operator (:class:`hopf_forge.diffrep.WeylOperator`).

    A kind supplies ``terms``, ``order`` (its truncation order), ``_new(terms)``
    (a value of its own kind, algebra, arity and order), ``_mismatch(other)``
    (the error that combining it with ``other``, a value of its kind, raises,
    or None) and ``_mul_into(other, out, top=None)``, which sums the product up
    to ``param**top`` (its order when None) into the graded terms ``out`` and
    returns them (``out`` itself, or the product's own dict when ``out`` is
    empty).  Values of one kind are equal when they can be combined and have
    the same terms; ``+``, ``-`` and ``*`` take another value of the kind, and
    ``*`` a scalar too.

    A difference is one pass: the subtrahend's terms are subtracted into a copy
    of the minuend, with no negated copy in between.  A commutator builds no
    second product and no copy: the second product, its left factor negated
    once, is summed into the dict of the freshly built first one (negating the
    left factor keeps the ``is FE_ONE`` skip of each right-hand scalar).  Only a
    dict that the operation itself built is summed into, as a :class:`WordMap`
    hands out its cached images."""

    __slots__ = ()

    def _check(self, other):
        err = self._mismatch(other)
        if err is not None:
            raise err

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._mismatch(other) is None and self.terms == other.terms

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_term(out, key, c)
        return self._new(out)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            sub_term(out, key, c)
        return self._new(out)

    def __neg__(self):
        return self._new({key: -c for key, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, type(self)):
            self._check(other)
            return self._new(self._mul_into(other, {}))
        if isinstance(other, _SCALARS):
            return self.scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        # scalars commute with everything; products of two values use __mul__
        return self.scaled(other) if isinstance(other, _SCALARS) else NotImplemented

    def scaled(self, c, k=0):
        """This value times the scalar ``c`` and ``param**k``."""
        return self._new(_scaled_terms(self.terms, c, k, self.order))

    def commutator(self, other):
        """``self*other - other*self``, in one dict."""
        self._check(other)
        return self._new((-other)._mul_into(self, self._mul_into(other, {})))


class NCElement(Graded):
    """Linear combination of normal-ordered words times graded scalars."""

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self.terms = terms

    order = property(lambda self: self.algebra.order)

    def _new(self, terms):
        return NCElement(self.algebra, terms)

    def _mismatch(self, other):
        if self.algebra is not other.algebra:
            return AlgebraMismatch(
                f"{self.algebra.name} element combined with {other.algebra.name} element")
        return None

    def __add__(self, other):
        if isinstance(other, _SCALARS):  # a scalar adds as that multiple of the unit
            other = self.algebra.unit().scaled(other)
        return Graded.__add__(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = self.algebra.unit().scaled(other)
        return Graded.__sub__(self, other)

    def __rsub__(self, other):
        return (-self) + other if isinstance(other, _SCALARS) else NotImplemented

    def _mul_into(self, other, out, top=None):
        """Sum ``self * other`` up to ``param**top`` into the graded terms ``out``
        and return them: ``out`` itself, or the first fold's own dict if empty."""
        alg = self.algebra
        top = alg.order if top is None else top
        alg._misses = 0  # the step bound is per product
        # both factors are normal: each right term scales and shifts the
        # left factor, which then takes the term's generators one by one
        for (w2, k2), c2 in other.terms.items():
            acc = alg.fold(_scaled_terms(self.terms, c2, k2, top), w2, top)
            if not out:
                out = acc
            else:
                for key, c in acc.items():
                    add_term(out, key, c)
        return out

    def __pow__(self, n):
        """``self**n`` by repeated squaring."""
        if n < 0:
            raise ValueError(f"negative exponent {n}: an element power needs n >= 0")
        out, base = self.algebra.unit(), self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def classical_limit(self):
        """Keep only the order-0 terms."""
        return NCElement(self.algebra, {key: c for key, c in self.terms.items()
                                        if key[1] == 0})

    def substitute(self, target, images):
        """Multiplicative substitution homomorphism into ``target``.

        ``images`` maps generator names (or indices) of this algebra to
        NCElements of the target; scalars pass unchanged, so both algebras
        must share param and order.
        """
        return WordMap(self.algebra, images, target.unit())(self)

    def by_word(self):
        """``(word, ((k, scalar), ...))`` per word, words in graded-lex order."""
        return _by_word(self.terms, self.algebra.word_key)

    def __repr__(self):
        from .expr import render_element
        return render_element(self, "text")

    # -- serialization -------------------------------------------------------

    def to_dict(self):
        """The JSON document of this element."""
        names, order = self.algebra.generators, self.order
        return {"terms": [{"word": [[names[g], e] for g, e in w],
                           "coeff": _dense_quads(s, order)} for w, s in self.by_word()]}


class TensorElement(Graded):
    """k-fold tensor products of normal-ordered words (k = 2 or 3)."""

    __slots__ = ("algebra", "arity", "terms")

    def __init__(self, algebra, arity, terms):
        self.algebra = algebra
        self.arity = arity
        self.terms = terms

    order = property(lambda self: self.algebra.order)

    @classmethod
    def unit(cls, algebra, arity):
        return cls(algebra, arity, {(((),) * arity, 0): FE_ONE})

    @classmethod
    def zero(cls, algebra, arity):
        return cls(algebra, arity, {})

    def _new(self, terms):
        return TensorElement(self.algebra, self.arity, terms)

    def _mismatch(self, other):
        if self.algebra is not other.algebra:
            return AlgebraMismatch("tensor operands from different algebras")
        if self.arity != other.arity:
            return ArityMismatch(f"arity {self.arity} vs {other.arity}")
        return None

    __mul__ = Graded.__mul__  # here too, so that a tracer can wrap the tensor product alone

    def _mul_into(self, other, out, top=None):
        """Sum ``self * other`` up to ``param**top`` into the graded terms ``out``."""
        alg = self.algebra
        n = alg.order if top is None else top
        nf = alg.normal_form_of_word
        share = alg._shared.setdefault
        one = FE_ONE
        right = list(other.terms.items())
        fitting = {}  # room n - k1 -> the right terms with k2 <= room, in their order
        # (left word, right word) -> their product: the joined word when it is one
        # unit term at power 0, else a list of its (word, k, scalar) entries
        slot_nf = {}
        for (ws1, k1), c1 in self.terms.items():
            room = n - k1
            pairs = fitting.get(room)
            if pairs is None:
                pairs = fitting[room] = [t for t in right if t[0][1] <= room]
            for (ws2, k2), c2 in pairs:
                # slot-wise normal forms, then distribute; entries ascend in power.
                # Joined words extend the key; the first slot that rewrites starts
                # the list of (words, k, scalar) partial terms
                cc = c1 if c2 is one else c2 if c1 is one else c1 * c2
                words, partial = (), None
                for uv in zip(ws1, ws2):
                    nfs = slot_nf.get(uv)
                    if nfs is None:
                        u, v = uv
                        if u and v and u[-1][0] > v[0][0]:
                            nfs = nf(flatten(u) + flatten(v))
                            nfs = (nfs[0][0] if len(nfs) == 1 and not nfs[0][1]
                                   and nfs[0][2] is one else list(nfs))
                        else:  # already normal: the presentation's one tuple of it
                            if u and v and u[-1][0] == v[0][0]:
                                (g, e1), (_, e2) = u[-1], v[0]
                                nfs = u[:-1] + ((g, e1 + e2),) + v[1:]
                            else:
                                nfs = u + v
                            nfs = share(nfs, nfs)
                        slot_nf[uv] = nfs
                    if type(nfs) is tuple:
                        if partial is None:
                            words += (nfs,)
                            continue
                        nfs = ((nfs, 0, one),)
                    elif partial is None:
                        partial = [(words, k1 + k2, cc)]
                    grown = []
                    for ws, k, c in partial:
                        for w, rk, rc in nfs:
                            if k + rk > n:
                                break
                            grown.append((ws + (w,), k + rk, c if rc is one else c * rc))
                    partial = grown
                    if not partial:
                        break
                if partial is None:
                    add_term(out, (words, k1 + k2), cc)
                else:
                    for ws, k, c in partial:
                        add_term(out, (ws, k), c)
        return out

    def flip(self):
        """Swap the two slots of an arity-2 tensor."""
        if self.arity != 2:
            raise ArityMismatch("flip needs arity 2")
        return self.embed((1, 0), 2)

    def embed(self, slots, arity=3):
        """Embed into a higher arity, placing slot s at position slots[s]."""
        slots = tuple(slots)
        if len(slots) != self.arity or len(set(slots)) != self.arity:
            raise ArityMismatch("embedding slots must be distinct, one per slot")
        if any(s >= arity for s in slots):
            raise ArityMismatch("embedding slot out of range")
        out = {}
        for (ws, k), c in self.terms.items():
            key = [()] * arity
            for s, pos in enumerate(slots):
                key[pos] = ws[s]
            out[(tuple(key), k)] = c
        return TensorElement(self.algebra, arity, out)

    def exp(self):
        """exp of a tensor whose every term carries a positive power of the
        parameter, exact to the working order; a term with param^0 (the unit
        word or any other) raises :class:`~hopf_forge.coeff.NonzeroConstantTerm`,
        as its powers would not truncate."""
        if any(k == 0 for _, k in self.terms):
            raise NonzeroConstantTerm("tensor exp with nonzero constant term")
        return exp_series(self.scaled(FE_ONE, -1), TensorElement.unit(self.algebra, self.arity))

    def substitute(self, target, images):
        """Slot-wise substitution homomorphism into a tensor over ``target``:
        the outer product of the slot images, which are already normal."""
        sub = WordMap(self.algebra, images, target.unit())
        top = target.order
        out = {}
        for (ws, k), c in self.terms.items():
            piece = [((), k, c)]
            for w in ws:
                piece = [(key + (u,), pk + uk, pc * uc)
                         for key, pk, pc in piece
                         for (u, uk), uc in sub.word(w, top - k).terms.items() if pk + uk <= top]
            for key, pk, pc in piece:
                add_term(out, (key, pk), pc)
        return TensorElement(target, self.arity, out)

    def by_word(self):
        """``(words, ((k, scalar), ...))`` per slot-word tuple, in sorted order."""
        key = self.algebra.word_key
        return _by_word(self.terms, lambda ws: tuple(map(key, ws)))

    def to_dict(self):
        """The JSON document of this tensor, one word list per slot."""
        names, order = self.algebra.generators, self.order
        return {"arity": self.arity,
                "terms": [{"word": [[[names[g], e] for g, e in w] for w in ws],
                           "coeff": _dense_quads(s, order)} for ws, s in self.by_word()]}

    def __repr__(self):
        from .expr import render_tensor
        return render_tensor(self, "text")


def tensor_pair(x, y):
    """x (x) y for NCElements of the same algebra (no normalization needed)."""
    if x.algebra is not y.algebra:
        raise AlgebraMismatch("tensor factors from different algebras")
    top = x.algebra.order
    out = {}
    for (w1, k1), c1 in x.terms.items():
        for (w2, k2), c2 in y.terms.items():
            if k1 + k2 <= top:
                add_term(out, ((w1, w2), k1 + k2), c1 * c2)
    return TensorElement(x.algebra, 2, out)


def tensor_of(algebra, pairs):
    """Sum of x_i (x) y_i."""
    out = TensorElement.zero(algebra, 2)
    for x, y in pairs:
        out = out + tensor_pair(x, y)
    return out


def exp_series(y, unit, shift=0, parity=None):
    """``sum_b y^b/b! * param^(b+shift)`` over the ``b`` of the given ``parity``
    (0 even, 1 odd, None all) with ``0 <= b+shift <= order``.

    ``y`` is an element or tensor and ``unit`` the unit of its kind: shift 0
    gives exp(param*y), shift -1 (exp(param*y) - 1)/param, and a parity its
    cosh or sinh part.  Exact for every ``y`` (no stored power is negative)
    when ``shift >= -1``: after the first term each one is the last times
    param*y, truncated."""
    if shift < -1:
        raise ValueError(f"exp_series shift {shift} is below -1")
    step = y.scaled(FE_ONE, 1)
    b, term = (1, y) if shift < 0 else (0, unit.scaled(FE_ONE, shift))
    out = unit.scaled(FE_ZERO)  # an empty element or tensor, summed into in place
    while b + shift <= unit.algebra.order and not term.is_zero():
        if parity is None or b % 2 == parity:
            for key, c in term.terms.items():
                add_term(out.terms, key, c)
        b += 1
        term = (term * step).scaled(FE_ONE / b)
    return out
