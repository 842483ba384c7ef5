"""Hopf-structure layer: coproduct, counit, antipode and the axiom checks.

The three maps are given on generators and extended multiplicatively
(anti-multiplicatively for the antipode) by :class:`~hopf_forge.ncalg.WordMap`;
the axioms are re-verified mechanically on generators plus all degree-2
normal words, which also exercises the rewriting kernel on both tensor slots.
The counit and antipode checks are one driver over the slot contraction
m((f(x)id)t), one :meth:`~hopf_forge.ncalg.AlgebraPresentation.fold_sum` that
folds each shared right-hand suffix once (the step bound counts per
contraction); the two rule checks read both sides of each commutation rule
off :func:`~hopf_forge.ncalg.rule_images`.
A check needs the image of a slot word of z^k*u(x)v only to the order less
k: it builds each to the order its lowest power leaves, highest order first,
so no image is built twice.
The word images that one run of the four axioms builds (:meth:`HopfMaps.run_all_checks`)
are memoised for that run only: no later check reads them, and at order 6 they
are megabytes.
Without an antipode the same class holds a bialgebra: repfrt checks the
coassociativity and counit of the FRT quantum group's coproduct with it, on
the generators only, since that coordinate algebra is Hopf only modulo an
ideal the checks here do not reduce by.
"""

from __future__ import annotations

from .coeff import FE_ONE
from .ncalg import NCElement, TensorElement, WordMap, add_term, rule_images, sub_term, tensor_of
from .report import CheckReport, timed_reports


def slot_budgets(ts, slots, top):
    """{slot word: ``top`` less the lowest power it carries in ``slots`` of ``ts``}."""
    need = {}
    for t in ts:
        for ws, k in t.terms:
            for s in slots:
                if need.get(ws[s], -1) < top - k:
                    need[ws[s]] = top - k
    return need


class HopfMaps:
    """Coproduct/counit/antipode data for one presentation.

    ``counit`` gives a scalar per generator; the counit of an element is a
    scalar element of the algebra.  ``antipode`` may be None for a bialgebra:
    the antipode maps, the antipode checks and :meth:`subalgebra_check` then
    raise :class:`~hopf_forge.ncalg.UnmappedGenerator`.  ``delta_map``,
    ``counit_map`` and ``antipode_map`` are the three maps, each a
    :class:`~hopf_forge.ncalg.WordMap`.
    """

    def __init__(self, algebra, delta, counit, antipode=None):
        self.algebra = algebra
        self.delta_map = WordMap(algebra, delta, TensorElement.unit(algebra, 2))
        self.counit_map = WordMap(algebra, {g: algebra.scalar(c) for g, c in counit.items()},
                                  algebra.unit())
        self.antipode_map = WordMap(algebra, antipode or {}, algebra.unit(), reverse=True)
        # generator index -> image (the counit's as the given scalar)
        self.delta, self.antipode = self.delta_map.images, self.antipode_map.images
        self.counit = {algebra.index.get(g, g): c for g, c in counit.items()}
        for i in range(len(algebra.generators)):
            if (i not in self.delta or i not in self.counit
                    or antipode is not None and i not in self.antipode):
                raise ValueError(f"Hopf data missing for generator {algebra.generators[i]}")

    # -- structure maps ------------------------------------------------------

    def coproduct_word(self, word, top=None):
        """Coproduct of a normal word (multiplicative extension) to ``param**top``, cached."""
        return self.delta_map.word(word, top)

    def coproduct(self, x):
        return self.delta_map(x)

    def antipode_word(self, word, top=None):
        """Antipode of a normal word: reversed product of generator images."""
        return self.antipode_map.word(word, top)

    def antipode_of(self, x):
        return self.antipode_map(x)

    def counit_word(self, word, top=None):
        return self.counit_map.word(word, top)

    def counit_of(self, x):
        """Counit of an element, as a scalar element of the algebra."""
        return self.counit_map(x)

    def delta_on_slot(self, t, slot, out=None, subtract=False):
        """Apply the coproduct to one slot of an arity-2 tensor (-> arity 3),
        summed into (``subtract``: subtracted from) the arity-3 tensor ``out``
        in place when one is given, each slot word's image to the order less k."""
        alg = self.algebra
        top = alg.order
        out = TensorElement(alg, 3, {}) if out is None else out
        acc = out.terms
        merge = sub_term if subtract else add_term
        for (ws, k), c in t.terms.items():
            for (dws, dk), dc in self.coproduct_word(ws[slot], top - k).terms.items():
                if k + dk > top:
                    continue
                if slot == 0:
                    key = (dws[0], dws[1], ws[1])
                else:
                    key = (ws[0], dws[0], dws[1])
                merge(acc, (key, k + dk), c if dc is FE_ONE else dc if c is FE_ONE else c * dc)
        return out

    # -- default test set ----------------------------------------------------

    def default_test_words(self):
        """All generators plus all degree-2 normal words."""
        n = len(self.algebra.generators)
        return [((i, 1),) for i in range(n)] + [((i, 2),) if i == j else ((i, 1), (j, 1))
                                                for i in range(n) for j in range(i, n)]

    def _label(self, word):
        return self.algebra.word_entry(word)[1] or "1"

    # -- axiom checks ----------------------------------------------------------

    def check_coassociativity(self, test_words=None):
        rep = CheckReport(check="coassociativity", algebra=self.algebra.name,
                          order=self.algebra.order)
        for w, t in self._coproducts(self.delta_map, test_words):
            # (id (x) Delta)(t) subtracted from (Delta (x) id)(t): one 3-tensor is built
            rep.expect_zero(self._label(w), self.delta_on_slot(
                t, 1, out=self.delta_on_slot(t, 0), subtract=True))
        return rep

    def _coproducts(self, m, test_words):
        """``(w, Delta(w))`` per test word, once ``m`` holds each slot word's image,
        built highest order first, so that no later request rebuilds one."""
        words = test_words or self.default_test_words()
        ts = [self.coproduct_word(w) for w in words]
        need = slot_budgets(ts, (0, 1), self.algebra.order)
        for w in sorted(need, key=need.get, reverse=True):
            m.word(w, need[w])
        return zip(words, ts)

    def contract_slot(self, t, f, slot):
        """m((f (x) id) t) for ``slot`` 0, m((id (x) f) t) for 1, ``f(word, top)``
        a map of normal words.  The left factors are summed, scaled, into one
        dict per right-hand word (the slot-1 word, or each word of its image
        under f), and the dicts go to one ``fold_sum``, which folds each shared
        suffix of those words once; the step bound counts per contraction.  Each
        slot word's image is fetched once, to the order its lowest power leaves."""
        alg = self.algebra
        top = alg.order
        images = {w: f(w, b).terms.items() for w, b in slot_budgets([t], (slot,), top).items()}
        by_right = {}
        for (ws, k), c in t.terms.items():
            image = images[ws[slot]]
            if slot == 0 and image:
                acc = by_right.setdefault(ws[1], {})
            for (u, uk), uc in image:
                if k + uk <= top:
                    v = c if uc is FE_ONE else uc if c is FE_ONE else c * uc
                    if slot:
                        add_term(by_right.setdefault(u, {}), (ws[0], k + uk), v)
                    else:
                        add_term(acc, (u, k + uk), v)
        return NCElement(alg, alg.fold_sum(by_right))

    def _check_contractions(self, check, m, letter, target, test_words):
        """m((f (x) id)Delta(w)) and m((id (x) f)Delta(w)) against ``target(w)``,
        ``f`` the word images of the ``WordMap`` ``m``."""
        alg = self.algebra
        rep = CheckReport(check=check, algebra=alg.name, order=alg.order)
        f = m.word
        for w, t in self._coproducts(m, test_words):
            want, label = target(w), self._label(w)
            rep.expect_zero(f"{label} ({letter}(x1)x2)", self.contract_slot(t, f, 0) - want)
            rep.expect_zero(f"{label} (x1 {letter}(x2))", self.contract_slot(t, f, 1) - want)
        return rep

    def check_counit(self, test_words=None):
        return self._check_contractions(
            "counit", self.counit_map, "eps",
            lambda w: NCElement(self.algebra, {(w, 0): FE_ONE}), test_words)

    def check_antipode(self, test_words=None):
        return self._check_contractions("antipode", self.antipode_map, "gamma",
                                         self.counit_word, test_words)

    def check_coproduct_hom(self):
        """Delta([X,Y]) = [Delta(X), Delta(Y)] for every generator pair."""
        alg = self.algebra
        rep = CheckReport(check="coproduct-hom", algebra=alg.name, order=alg.order)
        for (j, i), comm, image in rule_images(self.delta_map):
            rep.expect_zero(f"[{alg.generators[j]},{alg.generators[i]}]", image - comm)
        return rep

    def check_antipode_antihom(self):
        """gamma([X,Y]) = [gamma(Y), gamma(X)] for every generator pair."""
        alg = self.algebra
        rep = CheckReport(check="antipode-antihom", algebra=alg.name, order=alg.order)
        for (j, i), comm, image in rule_images(self.antipode_map):
            rep.expect_zero(f"{alg.generators[j]}*{alg.generators[i]}", -comm - image)
        return rep

    def primitive_generators(self):
        """Generators X with Delta(X) = 1(x)X + X(x)1."""
        alg = self.algebra
        one = alg.unit()
        out = []
        for i, name in enumerate(alg.generators):
            x = alg.gen(i)
            if (self.delta[i] - tensor_of(alg, [(one, x), (x, one)])).is_zero():
                out.append(name)
        return out

    def subalgebra_check(self, subset):
        """Do the given generators close a Hopf subalgebra?

        Checks that coproducts land in span(x)span, antipodes in span, and
        pairwise commutators in the enveloping span of the subset.
        """
        alg = self.algebra
        idx = {g if isinstance(g, int) else alg.index[g] for g in subset}
        if not idx:
            raise ValueError("subset must be nonempty")
        rep = CheckReport(check="hopf-subalgebra", algebra=alg.name, order=alg.order,
                          details={"subset": sorted(alg.generators[i] for i in idx)})

        def in_span(word):
            return all(g in idx for g, _ in word)

        for i in sorted(idx):
            name = alg.generators[i]
            for (w1, w2), _ in self.delta[i].terms:
                if not (in_span(w1) and in_span(w2)):
                    rep.add_failure(f"Delta({name})", self._label(w1) + "(x)" + self._label(w2))
            for w, _ in self.antipode_word(((i, 1),)).terms:
                if not in_span(w):
                    rep.add_failure(f"gamma({name})", self._label(w))
            for j in sorted(idx):
                if j <= i:
                    continue
                comm = alg.gen(j).commutator(alg.gen(i))
                for w, _ in comm.terms:
                    if not in_span(w):
                        rep.add_failure(
                            f"[{alg.generators[j]},{alg.generators[i]}]", self._label(w))
        return rep

    def run_all_checks(self):
        """The four axiom reports, each carrying its own measured time.  They run
        on maps built from the same generator images, whose word memos end with
        the run, so this object's maps hold afterwards what they held before."""
        run = HopfMaps(self.algebra, self.delta, self.counit, self.antipode or None)
        return timed_reports(run.check_coassociativity, run.check_counit,
                             run.check_antipode, run.check_coproduct_hom)
