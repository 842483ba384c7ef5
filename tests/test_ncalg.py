"""Noncommutative kernel: normal ordering, products, tensors, serialization."""

import gc
import json
import random
import sys
import weakref

import pytest

from hopf_forge import cli, ncalg, rmat
from hopf_forge.coeff import FE_ONE, FieldElem, rat
from hopf_forge.contraction import Contraction
from hopf_forge.ncalg import (AlgebraMismatch, AlgebraPresentation, ArityMismatch,
                              MissingRule, NCElement, NonTerminating,
                              TensorElement, UnmappedGenerator, add_term, flatten,
                              tensor_pair)
from hopf_forge.algebras import PRESET_NAMES, build_preset, preset


def fe(value):
    return FieldElem(rat(*value)) if isinstance(value, tuple) else FieldElem(value)


def mono(alg, value, degree=0):
    """The scalar value * param**degree as an element."""
    return alg.scalar(fe(value), degree)


def from_dict(algebra, data):
    """The element a ``to_dict`` document describes."""
    terms = {}
    for t in data["terms"]:
        w = tuple((algebra.index[g], e) for g, e in t["word"])
        for k, q in enumerate(t["coeff"][: algebra.order + 1]):
            terms[(w, k)] = FieldElem.from_quad(q)
    return algebra.element(terms)


def as_dict(entries):
    """Normal-form entries (word, k, scalar) as {(word, k): scalar}."""
    return {(w, k): c for w, k, c in entries}


class TestNormalize:
    def test_a_times_aplus(self):
        alg = preset("sl2", 2).presentation
        got = alg.gen("A") * alg.gen("A_plus")
        want = alg.element({
            (((0, 1), (1, 1)), 0): fe(1),
            (((0, 1),), 0): fe(2),
            (((0, 2),), 1): fe(2),
            (((0, 3),), 2): fe((4, 3)),
        })
        assert got == want

    def test_already_normal(self):
        alg = preset("sl2", 2).presentation
        x = alg.gen("A_plus") * alg.gen("A")
        assert set(x.terms) == {(((0, 1), (1, 1)), 0)}

    def test_aminus_times_a(self):
        alg = preset("sl2", 2).presentation
        got = alg.gen("A_minus") * alg.gen("A")
        want = alg.element({
            (((1, 1), (2, 1)), 0): fe(1),
            (((2, 1),), 0): fe(2),
            (((1, 2),), 1): fe(-1),
        })
        assert got == want

    def test_idempotent_on_random_words(self):
        alg = preset("nullplane", 2).presentation
        rng = random.Random(11)
        for _ in range(20):
            word = tuple(rng.randrange(6) for _ in range(rng.randint(1, 5)))
            nf = alg.normal_form_of_word(word)
            # every output word is sorted, and renormalizing is the identity
            for w, _, _ in nf:
                flat = tuple(g for g, e in w for _ in range(e))
                assert flat == tuple(sorted(flat))
                again = alg.normal_form_of_word(flat)
                assert again == ((w, 0, FE_ONE),)

    def test_missing_rule_raises(self):
        from hopf_forge.ncalg import AlgebraPresentation
        alg = AlgebraPresentation("partial", ("a", "b"), "z", 1)
        alg.set_rules({(1, 0): None})
        with pytest.raises(MissingRule):
            alg.gen("b") * alg.gen("a")


def compress(flat):
    """Flat word -> ((gen_index, exponent), ...)."""
    out = []
    for g in flat:
        if out and out[-1][0] == g:
            out[-1][1] += 1
        else:
            out.append([g, 1])
    return tuple((g, e) for g, e in out)


def leftmost_descent_normal_form(alg, flat):
    """Reference rewriter: repeatedly rewrite the leftmost out-of-order pair.

    Works on whole flat words with a work list and keeps no intermediate
    results, so it shares nothing with the kernel's word-times-generator
    table except the rules themselves.
    """
    out = {}
    work = {(flat, 0): FE_ONE}
    while work:
        (w, k), c = work.popitem()
        if c.is_zero():
            continue
        i = next((j for j in range(len(w) - 1) if w[j] > w[j + 1]), -1)
        if i < 0:
            key = (compress(w), k)
            out[key] = c if key not in out else out[key] + c
            continue
        rule = alg.rules.get((w[i], w[i + 1]))
        if rule is None:
            raise MissingRule(f"no rule for pair {w[i], w[i + 1]}")
        head, tail = w[:i], w[i + 2:]
        for (m, rk), rc in rule.terms.items():
            if k + rk <= alg.order:
                key = (head + flatten(m) + tail, k + rk)
                nc = c * rc
                work[key] = nc if key not in work else work[key] + nc
    return {key: c for key, c in out.items() if not c.is_zero()}


ORACLE_CASES = [(name, order) for name in ("sl2", "so22", "nullplane", "sl2-jbasis")
                for order in (2, 3, 4)] + [("nullplane-eps", 2)]


def fresh_presentation(name, order):
    if name == "nullplane-eps":
        return Contraction(preset("nullplane", order)).alg
    return build_preset(name, order).presentation


class TestKernelOracle:
    @pytest.mark.parametrize("name, order", ORACLE_CASES)
    def test_matches_leftmost_descent(self, name, order):
        first = fresh_presentation(name, order)
        second = fresh_presentation(name, order)
        n = len(first.generators)
        rng = random.Random(f"{name}-{order}")
        words = [tuple(rng.randrange(n) for _ in range(rng.randint(1, 8)))
                 for _ in range(6)]
        words += [tuple(range(n - 1, -1, -1)), (n - 1,) * 3 + (0,) * 3]
        got = {}
        for word in words:
            got[word] = as_dict(first.normal_form_of_word(word))
            assert got[word] == leftmost_descent_normal_form(first, word), word
        # the same answers when the words arrive in the other order
        for word in reversed(words):
            assert as_dict(second.normal_form_of_word(word)) == got[word], word


class TestDeepWords:
    @pytest.mark.parametrize("name, word", [
        ("nullplane", (2,) * 600 + (0,)),  # P_minus^600 * P_plus: one swap rule
        ("nullplane", (3,) * 32 + (2,)),   # E_1^32 * P_minus: a two-term rule
        ("so22", (4,) * 6 + (0,)),         # C_1^6 * P
    ])
    def test_stack_depth_does_not_grow_with_word_length(self, name, word):
        alg = build_preset(name, 2).presentation
        want = leftmost_descent_normal_form(alg, word)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            got = as_dict(alg.normal_form_of_word(word))
        finally:
            sys.setrecursionlimit(limit)
        assert got == want


class PrefixKeyedPresentation(AlgebraPresentation):
    """The table as it was before power-pair entries: the entry for ``u*g``
    with ``u = rest*h`` is the rule for ``h*g`` folded onto ``rest`` one
    generator at a time, so every prefix derives its own ``h**e * g``."""

    def _rewrite(self, flat):
        self._misses = 0
        acc = {((), 0): FE_ONE}
        for g in flat:
            acc = self._times(acc, g)
        return self._stored(acc)

    def _entry_steps(self, u, g):
        h, e = u[-1]
        rule = self._rules.get((h, g))
        if rule is None:
            raise MissingRule(f"no rule for {h}*{g}")
        rest = u[:-1] + ((h, e - 1),) if e > 1 else u[:-1]
        table = self._table
        total = {}
        for (m, rk), rc in rule.items():
            part = {(rest, rk): rc}
            for x in flatten(m):
                for w, _ in part:
                    if w and w[-1][0] > x and (w, x) not in table:
                        yield w, x
                part = self._times(part, x)
            for key, c in part.items():
                ncalg.add_term(total, key, c)
        table[(u, g)] = self._stored(total)


def prefix_keyed(alg):
    """A copy of ``alg`` with the same rules, an empty table and the old entries."""
    ref = PrefixKeyedPresentation(alg.name, alg.generators, alg.param, alg.order)
    ref._rules, ref._frozen = alg._rules, True
    return ref


PAIR_CASES = [(name, order, None) for name in ("sl2", "so22", "nullplane", "sl2-jbasis")
              for order in (2, 3, 4, 5)] + [("nullplane", n, "ncalg-rule") for n in (2, 3, 4, 5)]


class TestPowerPairEntries:
    @pytest.mark.parametrize("name, order, fault", PAIR_CASES)
    def test_matches_prefix_keyed_entries(self, name, order, fault):
        alg = build_preset(name, order, fault).presentation
        ref = prefix_keyed(alg)
        n = len(alg.generators)
        rng = random.Random(f"pair-{name}-{order}-{fault}")
        words = [tuple(rng.randrange(n) for _ in range(rng.randint(2, 7))) for _ in range(12)]
        # high powers carried past lower generators, behind a prefix and not
        words += [(n - 1,) * 4 + (0,), (0,) + (n - 1,) * 3 + (1,) + (n - 2,) * 2 + (0,) * 2]
        for word in words:
            assert as_dict(alg.normal_form_of_word(word)) == \
                as_dict(ref.normal_form_of_word(word)), word

    def test_prefixes_share_the_power_pair_entry(self):
        alg = build_preset("nullplane", 2).presentation
        pm, f1 = alg.index["P_minus"], alg.index["F_1"]
        pair = (((f1, 3),), pm)
        for head in range(f1):
            word = (head,) + (f1,) * 3 + (pm,)
            want = leftmost_descent_normal_form(alg, word)
            assert as_dict(alg.normal_form_of_word(word)) == want
            assert pair in alg._table
        # no prefix derives F_1^3*P_minus again through its own F_1^2*P_minus
        assert not any(u[-1] == (f1, 2) and g == pm for u, g in alg._table if len(u) > 1)

    def test_table_grows_linearly_with_the_power(self):
        from hopf_forge.expr import parse_to_element
        filled = []
        for n in (200, 400, 800):
            alg = build_preset("nullplane", 2).presentation
            before = len(alg._table)
            x = parse_to_element(f"(F_1*P_minus)^{n}", alg)
            filled.append(len(alg._table) - before)
            assert set(x.terms) == {(((alg.index["P_minus"], n), (alg.index["F_1"], n)), 0)}
        # prefix-keyed entries filled 11,094, 44,374 and 177,494 here
        assert filled == [383, 767, 1535]
        assert filled[2] - filled[1] == 2 * (filled[1] - filled[0])


class TestKernelErrors:
    def test_step_limit_leaves_no_cache_entry(self, monkeypatch):
        alg = build_preset("so22", 2).presentation
        word = (5, 4, 3, 2, 1, 0, 5, 4)
        assert word not in alg._nf_cache
        monkeypatch.setattr(ncalg, "REWRITE_STEP_LIMIT", 3)
        with pytest.raises(NonTerminating):
            alg.normal_form_of_word(word)
        assert word not in alg._nf_cache
        monkeypatch.undo()
        assert as_dict(alg.normal_form_of_word(word)) == leftmost_descent_normal_form(alg, word)

    def test_missing_rule_inside_table_entry_raises_again(self):
        alg = AlgebraPresentation("partial3", ("a", "b", "c"), "z", 1)
        one = FE_ONE
        alg.set_rules({(1, 0): None,
                       (2, 0): alg.element({(((0, 1), (2, 1)), 0): one}),
                       (2, 1): alg.element({(((1, 1), (2, 1)), 0): one})})
        # b*c*a: computing (b c)*a needs b*a, which has no rule; the second
        # call must not mistake a leftover in-progress mark for a cycle
        for _ in range(2):
            with pytest.raises(MissingRule):
                alg.normal_form_of_word((1, 2, 0))
        with pytest.raises(MissingRule):
            alg.gen("b") * alg.gen("a")

    def test_runaway_rewriting_is_nonterminating(self, monkeypatch):
        alg = AlgebraPresentation("runaway", ("a", "b"), "z", 1)
        # b*a = a^2 b^2 makes b^2 a grow without end: b^2*a = b*a^2 b^2 =
        # a^2 b^2 * a b^2, and a^2 b^2 * a needs the power pair b^2*a again
        alg.set_rules({(1, 0): alg.element({(((0, 2), (1, 2)), 0): FE_ONE})})
        monkeypatch.setattr(ncalg, "REWRITE_STEP_LIMIT", 2000)
        with pytest.raises(NonTerminating, match="cycles"):
            alg.normal_form_of_word((1, 1, 0))
        assert (1, 1, 0) not in alg._nf_cache
        assert (((1, 2),), 0) not in alg._table

    def test_runaway_element_product_is_nonterminating(self, monkeypatch):
        alg = AlgebraPresentation("runaway", ("a", "b"), "z", 1)
        alg.set_rules({(1, 0): alg.element({(((0, 2), (1, 2)), 0): FE_ONE})})
        monkeypatch.setattr(ncalg, "REWRITE_STEP_LIMIT", 50)
        b, a = alg.gen("b"), alg.gen("a")
        with pytest.raises(NonTerminating, match="cycles"):
            (b * b) * a
        # b*a alone terminates; the step bound stops b^2*a before the cycle
        assert b * a == alg.element({(((0, 2), (1, 2)), 0): FE_ONE})
        monkeypatch.setattr(ncalg, "REWRITE_STEP_LIMIT", 1)
        with pytest.raises(NonTerminating, match="exceeded"):
            (b * b) * a

    def test_step_bound_counts_per_product(self, monkeypatch):
        alg = fresh_presentation("so22", 2)
        n = len(alg.generators)
        limit = 8
        monkeypatch.setattr(ncalg, "REWRITE_STEP_LIMIT", limit)
        filled = []
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    before = len(alg._table)
                    (alg.gen(i) * alg.gen(j)) * alg.gen(k)
                    filled.append(len(alg._table) - before)
        # each product stays under the bound, the run as a whole does not
        assert max(filled) <= limit < sum(filled)

    def test_step_bound_counts_per_parsed_product_term(self, monkeypatch):
        from hopf_forge.expr import parse_to_element
        alg = fresh_presentation("so22", 2)
        gens = alg.generators
        limit = 8
        monkeypatch.setattr(ncalg, "REWRITE_STEP_LIMIT", limit)
        before = len(alg._table)
        # every term folds its three generators under the bound, the sum does not
        parse_to_element(" + ".join(f"{a}*{b}*{c}" for a in gens for b in gens for c in gens),
                         alg)
        assert len(alg._table) - before > limit
        # one term that needs more entries than the bound fails on its own
        reversed_word = "*".join(reversed(gens))
        with pytest.raises(NonTerminating, match="exceeded"):
            parse_to_element(f"{gens[0]} + {reversed_word}*{reversed_word}",
                             fresh_presentation("so22", 2))
        runaway = AlgebraPresentation("runaway", ("a", "b"), "z", 1)
        runaway.set_rules({(1, 0): runaway.element({(((0, 2), (1, 2)), 0): FE_ONE})})
        monkeypatch.setattr(ncalg, "REWRITE_STEP_LIMIT", 50)
        with pytest.raises(NonTerminating, match="cycles"):
            parse_to_element("a + b*b*a", runaway)

    def test_cycle_through_truncated_terms_is_nonterminating(self):
        # (b c)*a needs b*a = z b c, then (b c)*a again: every return carries
        # a power of z, but a table entry holds u*g for any coefficient
        alg = AlgebraPresentation("zcycle", ("a", "b", "c"), "z", 2)
        alg.set_rules({(1, 0): alg.element({(((1, 1), (2, 1)), 1): fe(1)}),
                       (2, 0): alg.element({(((0, 2),), 1): fe(1)}),
                       (2, 1): alg.element({(((1, 1), (2, 1)), 0): FE_ONE})})
        with pytest.raises(NonTerminating, match="cycles"):
            alg.normal_form_of_word((1, 2, 0))
        assert alg.normal_form_of_word((2, 1)) == ((((1, 1), (2, 1)), 0, FE_ONE),)

    def test_negative_power_is_an_error(self):
        alg = preset("sl2", 2).presentation
        x = alg.gen(0)
        with pytest.raises(ValueError, match="negative exponent"):
            x ** -1
        assert x ** 0 == alg.unit()
        assert x ** 3 == x * x * x

    @pytest.mark.parametrize("name", ["so22", "nullplane-eps"])
    def test_interned_coefficients_equal_fresh_ones(self, name):
        alg = fresh_presentation(name, 2)
        rng = random.Random(3)
        for _ in range(10):
            alg.normal_form_of_word(tuple(rng.randrange(6) for _ in range(5)))
        stored = [c for nf in alg._nf_cache.values() for _, _, c in nf]
        stored += [c for entry in alg._table.values() for _, _, c in entry]
        assert stored
        for c in stored:
            assert alg._interned[(c.p, c.q, c.d)] is c
            fresh = c + FieldElem(0)
            if c == 1:  # every 1 is the one FE_ONE, stored or fresh
                assert c is FE_ONE and fresh is FE_ONE
            else:
                assert fresh is not c
            assert fresh == c and hash(fresh) == hash(c)

    @pytest.mark.parametrize("name", ["sl2", "so22", "nullplane", "sl2-jbasis"])
    def test_unit_times_stored_scalars(self, name):
        alg = fresh_presentation(name, 3)
        rng = random.Random(7)
        for _ in range(10):
            alg.normal_form_of_word(tuple(rng.randrange(len(alg.generators)) for _ in range(4)))
        stored = set(alg._interned.values())
        stored.update(c for rhs in alg._rules.values() if rhs for c in rhs.values())
        assert len(stored) > 3
        for c in stored:
            for one in (FE_ONE, FieldElem(1), 1, rat(1)):
                assert c * one == c and one * c == c


class TestMul:
    def test_in_order_product(self):
        alg = preset("sl2", 2).presentation
        x = alg.gen("A_plus") * alg.gen("A_minus")
        assert set(x.terms) == {(((0, 1), (2, 1)), 0)}

    def test_out_of_order_product(self):
        alg = preset("sl2", 2).presentation
        got = alg.gen("A_minus") * alg.gen("A_plus")
        want = alg.element({(((0, 1), (2, 1)), 0): fe(1), (((1, 1),), 0): fe(-1)})
        assert got == want

    def test_unit(self):
        alg = preset("sl2", 2).presentation
        x = alg.gen("A") * alg.gen("A_minus") + alg.unit() * mono(alg, (1, 2))
        assert alg.unit() * x == x

    def test_algebra_mismatch(self):
        a = preset("sl2", 2).presentation
        b = preset("nullplane", 2).presentation
        with pytest.raises(AlgebraMismatch):
            a.gen("A") * b.gen("P_1")

    def test_associativity_random(self):
        alg = preset("so22", 2).presentation
        rng = random.Random(5)

        def rand_elem():
            out = alg.zero()
            for _ in range(rng.randint(1, 3)):
                word = tuple(rng.randrange(6) for _ in range(rng.randint(0, 3)))
                value, k = rng.randint(-3, 3), rng.randint(0, 1)
                out = out + alg.normalize([(word, k, fe(value))])
            return out

        for _ in range(8):
            x, y, z = rand_elem(), rand_elem(), rand_elem()
            assert (x * y) * z == x * (y * z)

    def test_bilinearity_of_commutator(self):
        alg = preset("nullplane", 2).presentation
        x, y, z = alg.gen("K_2"), alg.gen("P_minus"), alg.gen("F_1")
        assert x.commutator(y) == -(y.commutator(x))
        # Leibniz: [x, yz] = [x,y]z + y[x,z]
        assert x.commutator(y * z) == x.commutator(y) * z + y * x.commutator(z)

    def test_jacobi_on_all_preset_triples(self):
        for name in ("sl2", "so22", "nullplane", "sl2-jbasis"):
            alg = preset(name, 2).presentation
            n = len(alg.generators)
            for i in range(n):
                for j in range(i + 1, n):
                    for k in range(j + 1, n):
                        x, y, z = alg.gen(i), alg.gen(j), alg.gen(k)
                        acc = (x.commutator(y.commutator(z))
                               + y.commutator(z.commutator(x))
                               + z.commutator(x.commutator(y)))
                        assert acc.is_zero(), (name, i, j, k)


def concatenated_product(x, y):
    """``x * y`` by the concatenation path: each pair of flat words joined
    and normalized as a whole."""
    alg = x.algebra
    return alg.normalize([(flatten(w1) + flatten(w2), k1 + k2, c1 * c2)
                          for (w1, k1), c1 in x.terms.items()
                          for (w2, k2), c2 in y.terms.items() if k1 + k2 <= alg.order])


def descent_product(x, y):
    """``x * y`` through the leftmost-descent reference rewriter."""
    alg = x.algebra
    out = {}
    for (w1, k1), c1 in x.terms.items():
        for (w2, k2), c2 in y.terms.items():
            flat = flatten(w1) + flatten(w2)
            for (w, k), c in leftmost_descent_normal_form(alg, flat).items():
                if k + k1 + k2 <= alg.order:
                    key = (w, k + k1 + k2)
                    out[key] = c * c1 * c2 + out.get(key, FieldElem(0))
    return {key: c for key, c in out.items() if not c.is_zero()}


def random_element(alg, rng, max_terms=3, max_len=2):
    """Normal words (sorted generator runs) at mixed powers of the parameter."""
    n = len(alg.generators)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        flat = sorted(rng.randrange(n) for _ in range(rng.randint(0, max_len)))
        value = FieldElem(rat(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-1, 1))
        terms[(compress(flat), rng.randint(0, alg.order))] = value
    return alg.element(terms)


class TestProductOracle:
    @pytest.mark.parametrize("name", ["sl2", "nullplane", "so22", "nullplane-eps"])
    def test_fold_matches_concatenation_and_descent(self, name):
        alg = fresh_presentation(name, 4)
        rng = random.Random(17)
        elems = [random_element(alg, rng) for _ in range(6)]
        elems += [alg.zero(), alg.unit(), alg.scalar(FieldElem(rat(-2, 3), 1), 2)]
        for x in elems:
            for y in elems[3:] + [random_element(alg, rng)]:
                got = x * y
                assert got == concatenated_product(x, y), (x, y)
                assert got.terms == descent_product(x, y), (x, y)

    @pytest.mark.parametrize("name", ["sl2", "so22"])
    def test_fold_is_the_product_by_a_word(self, name):
        alg = fresh_presentation(name, 3)
        rng = random.Random(5)
        for _ in range(6):
            x, w = random_element(alg, rng), random_element(alg, rng)
            for word, _ in w.terms:
                terms = dict(x.terms)
                got = alg.fold(terms, word)
                assert terms == x.terms  # the input dict is left as it was
                assert NCElement(alg, got) == x * alg.element({(word, 0): FE_ONE})

    @pytest.mark.parametrize("name", ["sl2", "nullplane", "so22"])
    def test_fold_sum_is_the_sum_of_folds(self, name):
        alg = fresh_presentation(name, 3)
        rng = random.Random(11)
        g = len(alg.generators)
        # words that share suffixes, at letter level too (a*b^2 and b), and the empty word
        words = [(), ((g - 1, 1),), ((g - 1, 2),), ((0, 1), (g - 1, 2)),
                 ((1, 1), (g - 1, 1)), ((0, 2), (1, 1), (g - 1, 1)), ((0, 1),)]
        for _ in range(4):
            groups = {w: random_element(alg, rng).terms for w in words}
            want = {}
            for w, terms in groups.items():
                for key, c in alg.fold(dict(terms), w).items():
                    add_term(want, key, c)
            assert alg.fold_sum({w: dict(t) for w, t in groups.items()}) == want
        # x*a*b against -(x*a)*b: the two groups cancel where their suffixes meet
        x = random_element(alg, rng)
        xa = alg.fold(dict(x.terms), ((0, 1),))
        groups = {((0, 1), (g - 1, 1)): dict(x.terms),
                  ((g - 1, 1),): {key: -c for key, c in xa.items()}}
        assert alg.fold_sum(groups) == {}
        one = {((), 0): FE_ONE}
        assert alg.fold_sum({(): dict(one)}) == one
        assert alg.fold_sum({}) == {}

    def test_product_whose_terms_cancel(self):
        alg = fresh_presentation("sl2", 4)
        a, m = alg.gen("A_plus"), alg.gen("A_minus")
        got = (a + m) * (a - m)
        # the A_plus*A_minus words of a*(-m) and m*a cancel; -[A_plus, A_minus] is left
        assert (((0, 1), (2, 1)), 0) not in got.terms
        assert got == a * a - m * m - a.commutator(m)
        assert got == concatenated_product(a + m, a - m)
        assert got.terms == descent_product(a + m, a - m)


class TestConsistency:
    def test_presets_pass(self):
        for name in ("sl2", "so22", "nullplane", "sl2-jbasis"):
            assert preset(name, 3).presentation.consistency_check().passed

    def test_corrupted_rule_fails(self):
        from hopf_forge.algebras import build_preset
        bad = build_preset("nullplane", 2, fault="ncalg-rule")
        rep = bad.presentation.consistency_check()
        assert not rep.passed
        assert rep.failures[0]["residual"]


class TestTensor:
    def test_embed(self):
        alg = preset("sl2", 2).presentation
        t = tensor_pair(alg.gen("A"), alg.gen("A_plus"))
        e = t.embed((0, 2), 3)
        assert set(e.terms) == {((((1, 1),), (), ((0, 1),)), 0)}

    def test_flip_symmetric_element(self):
        alg = preset("sl2", 2).presentation
        t = tensor_pair(alg.unit(), alg.gen("A_plus")) \
            + tensor_pair(alg.gen("A_plus"), alg.unit())
        assert t.flip() == t

    def test_tensor_mul(self):
        alg = preset("sl2", 2).presentation
        t1 = tensor_pair(alg.gen("A_plus"), alg.unit())
        t2 = tensor_pair(alg.unit(), alg.gen("A"))
        assert t1 * t2 == tensor_pair(alg.gen("A_plus"), alg.gen("A"))

    def test_arity_mismatch(self):
        alg = preset("sl2", 2).presentation
        t = tensor_pair(alg.unit(), alg.unit())
        with pytest.raises(ArityMismatch):
            t * t.embed((0, 1), 3)

    def test_flip_is_involutive_and_linear(self):
        alg = preset("nullplane", 2).presentation
        t = tensor_pair(alg.gen("K_2"), alg.gen("P_plus")).scaled(fe(3), 1) \
            + tensor_pair(alg.gen("E_1"), alg.gen("P_1"))
        assert t.flip().flip() == t

    def test_element_times_tensor_is_a_type_error(self):
        alg = preset("sl2", 2).presentation
        x = alg.gen("A_plus")
        t = tensor_pair(alg.gen("A"), alg.unit())
        for left, right in ((x, t), (t, x), (t, "x"), ("x", t), (x, "x")):
            with pytest.raises(TypeError):
                left * right

    def test_int_and_field_scalars_still_scale(self):
        alg = preset("sl2", 2).presentation
        t = tensor_pair(alg.gen("A"), alg.gen("A_plus"))
        twice = t.scaled(fe(2))
        assert 2 * t == twice and t * 2 == twice
        assert fe(2) * t == twice and t * fe(2) == twice
        assert rat(2) * t == twice and t * rat(2) == twice
        x = alg.gen("A")
        assert 2 * x == x * 2 == x.scaled(fe(2)) == x * rat(2) == rat(2) * x


def reference_tensor_product(x, y):
    """``x * y`` for tensors by the product that visits every pair of terms:
    each slot's two flat words joined and normalized, then distributed, with
    the pairs above the order skipped one by one."""
    alg = x.algebra
    n = alg.order
    nf = alg.normal_form_of_word
    out = {}
    for (ws1, k1), c1 in x.terms.items():
        for (ws2, k2), c2 in y.terms.items():
            if k1 + k2 > n:
                continue
            partial = [((), k1 + k2, c1 * c2)]
            for s in range(x.arity):
                nfs = nf(flatten(ws1[s]) + flatten(ws2[s]))
                partial = [(words + (w,), k + rk, cc * rc)
                           for words, k, cc in partial
                           for w, rk, rc in nfs if k + rk <= n]
                if not partial:
                    break
            for words, k, cc in partial:
                key = (words, k)
                acc = out.get(key)
                if acc is None:
                    out[key] = cc
                else:
                    s2 = acc + cc
                    if s2.is_zero():
                        del out[key]
                    else:
                        out[key] = s2
    return out


def random_tensor(alg, rng, arity, max_terms=6, max_len=2):
    """Normal slot words at mixed powers of the parameter, one term at the order."""
    n = len(alg.generators)
    terms = {}
    for i in range(rng.randint(2, max_terms)):
        ws = tuple(compress(sorted(rng.randrange(n) for _ in range(rng.randint(0, max_len))))
                   for _ in range(arity))
        k = alg.order if i == 0 else rng.randint(0, alg.order)
        terms[(ws, k)] = FieldElem(rat(rng.randint(-3, 3) or 1, rng.randint(1, 2)),
                                   rng.choice((0, 0, 1)))
    return TensorElement(alg, arity, terms)


def slotwise_tensor_product(x, y):
    """``x * y`` for tensors by the product loop that builds a ``(words, k,
    scalar)`` list through every slot of every pair, the slots that join to
    one unit term included: the reference for the direct keys of
    ``TensorElement.__mul__``, which must give the same terms in the same
    insertion order."""
    alg = x.algebra
    n = alg.order
    nf = alg.normal_form_of_word
    one = FE_ONE
    right = list(y.terms.items())
    fitting = {}
    slot_nf = {}
    out = {}
    for (ws1, k1), c1 in x.terms.items():
        room = n - k1
        pairs = fitting.get(room)
        if pairs is None:
            pairs = fitting[room] = [t for t in right if t[0][1] <= room]
        for (ws2, k2), c2 in pairs:
            partial = [((), k1 + k2, c1 * c2)]
            for u, v in zip(ws1, ws2):
                nfs = slot_nf.get((u, v))
                if nfs is None:
                    if not u or not v or u[-1][0] < v[0][0]:
                        nfs = ((u + v, 0, one),)
                    elif u[-1][0] == v[0][0]:
                        (g, e1), (_, e2) = u[-1], v[0]
                        nfs = ((u[:-1] + ((g, e1 + e2),) + v[1:], 0, one),)
                    else:
                        nfs = nf(flatten(u) + flatten(v))
                    slot_nf[(u, v)] = nfs
                grown = []
                for words, k, cc in partial:
                    for w, rk, rc in nfs:
                        if k + rk > n:
                            break
                        grown.append((words + (w,), k + rk, cc if rc is one else cc * rc))
                partial = grown
                if not partial:
                    break
            for words, k, cc in partial:
                ncalg.add_term(out, (words, k), cc)
    return out


def cancelling_pair(alg, arity):
    """Two tensors whose product has pairs that cancel: with g in the first
    slot and h in the last, (g(x)1 + 1(x)h)(1(x)h - g(x)1) = 1(x)h^2 - g^2(x)1,
    the two g(x)h pairs cancelling (the slots commute)."""
    n = len(alg.generators)
    g, h = ((0, 1),), ((n - 1, 1),)
    first = ((g,) + ((),) * (arity - 1), 0)
    last = (((),) * (arity - 1) + (h,), 0)
    x = TensorElement(alg, arity, {first: FE_ONE, last: FE_ONE})
    y = TensorElement(alg, arity, {last: FE_ONE, first: fe(-1)})
    return x, y


class TestDirectTensorKeys:
    @pytest.mark.parametrize("name", ["sl2", "nullplane", "so22"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_the_slotwise_loop(self, name, order):
        alg = build_preset(name, order).presentation
        rng = random.Random(f"direct-{name}-{order}")
        for arity in (2, 3):
            ts = [random_tensor(alg, rng, arity, max_len=3) for _ in range(5)]
            ts += [TensorElement.unit(alg, arity), *cancelling_pair(alg, arity)]
            for x in ts:
                for y in ts:
                    got = (x * y).terms
                    want = slotwise_tensor_product(x, y)
                    assert got == want, (x, y)
                    assert list(got) == list(want), (x, y)

    def test_cancelling_pairs_leave_no_key(self):
        alg = build_preset("so22", 2).presentation
        x, y = cancelling_pair(alg, 2)
        got = (x * y).terms
        n = len(alg.generators)
        assert got == {(((), ((n - 1, 2),)), 0): FE_ONE, ((((0, 2),), ()), 0): fe(-1)}
        assert list(got) == list(slotwise_tensor_product(x, y))

    def test_truncation_cuts_rewritten_slots(self):
        # at order 1 a slot whose normal form has a param^1 term meets a
        # pair at power 1: that term is cut, the power-0 one kept
        alg = build_preset("sl2", 1).presentation
        a, m = ((1, 1),), ((2, 1),)  # A and A_minus
        nfs = alg.normal_form_of_word((2, 1))
        assert any(k == 1 for _, k, _ in nfs) and any(k == 0 for _, k, _ in nfs)
        x = TensorElement(alg, 2, {((m, ()), 1): fe(2), ((m, a), 0): fe(3)})
        y = TensorElement(alg, 2, {((a, m), 0): fe((1, 2)), (((), a), 1): FE_ONE})
        got = (x * y).terms
        assert got == slotwise_tensor_product(x, y) == reference_tensor_product(x, y)
        assert list(got) == list(slotwise_tensor_product(x, y))
        assert max(k for _, k in got) == 1


class TestDifference:
    def test_self_difference_is_zero(self):
        alg = build_preset("nullplane", 3).presentation
        rng = random.Random(3)
        for _ in range(10):
            x = random_element(alg, rng)
            t = random_tensor(alg, rng, rng.choice((2, 3)))
            assert (x - x).is_zero() and (x - x).terms == {}
            assert (t - t).is_zero() and (t - t).terms == {}

    def test_difference_is_the_sum_with_the_negation(self):
        alg = build_preset("so22", 3).presentation
        rng = random.Random(4)
        for _ in range(20):
            x, y = random_element(alg, rng), random_element(alg, rng)
            assert (x - y).terms == (x + -y).terms
            t, u = random_tensor(alg, rng, 2), random_tensor(alg, rng, 2)
            assert (t - u).terms == (t + -u).terms
            assert (t - u) + u == t

    def test_operands_are_not_mutated(self):
        alg = build_preset("sl2", 2).presentation
        rng = random.Random(5)
        x, y = random_element(alg, rng), random_element(alg, rng)
        t, u = random_tensor(alg, rng, 3), random_tensor(alg, rng, 3)
        before = [dict(v.terms) for v in (x, y, t, u)]
        results = [x - y, y - x, x - 2, t - u, u - t]
        assert [v.terms for v in (x, y, t, u)] == before
        assert not any(r.terms is v.terms for r in results for v in (x, y, t, u))

    def test_mismatches_still_raise(self):
        sl2, so22 = preset("sl2", 2).presentation, preset("so22", 2).presentation
        with pytest.raises(AlgebraMismatch):
            sl2.gen("A") - so22.gen(so22.generators[0])
        with pytest.raises(AlgebraMismatch):
            TensorElement.unit(sl2, 2) - TensorElement.unit(so22, 2)
        with pytest.raises(ArityMismatch):
            TensorElement.unit(sl2, 2) - TensorElement.unit(sl2, 3)


def lambda_keyed_by_word(terms, sort_key):
    """``_by_word`` sorting through lambda keys: the reference for the plain sorts."""
    grouped = {}
    for (w, k), c in terms.items():
        grouped.setdefault(w, []).append((k, c))
    return sorted(((w, tuple(sorted(s, key=lambda t: t[0]))) for w, s in grouped.items()),
                  key=lambda t: sort_key(t[0]))


class TestByWord:
    @pytest.mark.parametrize("name", ["sl2", "nullplane", "so22"])
    def test_matches_lambda_keyed_sorts(self, name):
        alg = build_preset(name, 4).presentation
        rng = random.Random(f"by-word-{name}")
        for _ in range(15):
            x = random_element(alg, rng, max_terms=8, max_len=3)
            x = x * random_element(alg, rng) + x
            assert x.by_word() == lambda_keyed_by_word(x.terms, ncalg.word_sort_key)
            t = random_tensor(alg, rng, rng.choice((2, 3)), max_terms=10)
            want = lambda_keyed_by_word(
                t.terms, lambda ws: tuple(ncalg.word_sort_key(w) for w in ws))
            assert t.by_word() == want

    def test_warm_memo_matches_lambda_keyed_sorts(self):
        alg = build_preset("nullplane", 3).presentation
        rng = random.Random("by-word-warm")
        xs = [random_element(alg, rng, max_terms=8, max_len=3) for _ in range(10)]
        ts = [random_tensor(alg, rng, rng.choice((2, 3)), max_terms=10) for _ in range(10)]
        for y in xs + ts:  # every word of the loop below is in the memo first
            repr(y)
        for x, t in zip(xs, ts):
            assert x.by_word() == lambda_keyed_by_word(x.terms, ncalg.word_sort_key)
            want = lambda_keyed_by_word(
                t.terms, lambda ws: tuple(ncalg.word_sort_key(w) for w in ws))
            assert t.by_word() == want


FORMATS = ("text", "latex", "json")


def render_in(y, fmt):
    from hopf_forge.expr import render_element, render_tensor
    return (render_tensor if isinstance(y, TensorElement) else render_element)(y, fmt)


def render_all(y):
    """``y`` rendered in every format."""
    return [render_in(y, fmt) for fmt in FORMATS]


class TestWordMemo:
    """The per-presentation memo of each normal word's sort key and spellings."""

    @pytest.mark.parametrize("name", ["sl2", "so22", "nullplane-eps"])
    def test_cold_and_warm_renders_agree(self, name):
        alg = fresh_presentation(name, 3)
        rng = random.Random(f"memo-{name}")
        ys = [random_element(alg, rng, max_terms=8, max_len=3) for _ in range(8)]
        ys += [random_tensor(alg, rng, arity, max_terms=8) for arity in (2, 3) for _ in range(4)]
        cold = []
        for y in ys:
            cold.append([])
            for fmt in FORMATS:
                alg._words.clear()
                cold[-1].append(render_in(y, fmt))
            assert render_all(y) == cold[-1]  # warm with y's own words
        assert [render_all(y) for y in ys] == cold  # warm with every word

    def test_same_words_spelled_in_each_presentations_names(self):
        sl2 = build_preset("sl2", 2).presentation
        jb = build_preset("sl2-jbasis", 2).presentation
        want = {sl2: ["z*A_plus*A_minus^2", "A_plus⊗A_minus^2",
                      r"z \, A_+ A_-^{2}", r"A_+ \otimes A_-^{2}"],
                jb: ["z*J_plus*J_minus^2", "J_plus⊗J_minus^2",
                     r"z \, J_+ J_-^{2}", r"J_+ \otimes J_-^{2}"]}
        for alg in (sl2, jb, sl2):  # the second sl2 pass reads a warm memo
            x = alg.element({(((0, 1), (2, 2)), 1): FE_ONE})
            t = TensorElement(alg, 2, {((((0, 1),), ((2, 2),)), 0): FE_ONE})
            assert [render_in(y, fmt) for fmt in ("text", "latex") for y in (x, t)] == want[alg]
            doc = json.loads(render_in(t, "json"))
            assert doc["terms"][0]["word"] == [[[alg.generators[0], 1]], [[alg.generators[2], 2]]]

    def test_presentation_with_a_filled_memo_is_freed(self):
        alg = AlgebraPresentation("memo", ("a", "b"), "z", 2, {"a": r"\alpha"})
        alg.set_commutators({(0, 1): alg.gen("a") * FieldElem(2)})
        x = (alg.gen("b") + alg.gen("a")) ** 3
        t = tensor_pair(x, alg.gen("b"))
        assert t * t.flip()  # a tensor product fills the shared words too
        for y in (x, t):
            render_all(y)
        assert alg._words and alg._shared and alg._nf_cache
        gc.disable()  # the last reference, not a collection, must free it
        try:
            ref = weakref.ref(alg)
            del alg, x, t, y
            assert ref() is None
        finally:
            gc.enable()


class TestSharedWords:
    """Stored normal forms and joined tensor slots keep one tuple per normal word."""

    def test_equal_words_are_one_object(self):
        bundle = build_preset("so22", 3)
        alg = bundle.presentation
        assert bundle.hopf.check_antipode().passed
        delta = bundle.hopf.delta
        t = delta[1] * delta[3] * delta[0]  # slots that join in order and that rewrite
        assert alg._table and alg._nf_cache
        words = [w for entry in alg._table.values() for w, _, _ in entry]
        words += [w for entry in alg._nf_cache.values() for w, _, _ in entry]
        words += [w for ws, _ in t.terms for w in ws]
        one = {}
        assert len(words) > 2 * len(set(words))  # many repeats, so sharing is tested
        assert all(one.setdefault(w, w) is w for w in words)


TENSOR_CASES = [(name, order, None) for name in ("sl2", "so22", "nullplane", "sl2-jbasis")
                for order in (2, 3, 4, 5)] + [("nullplane", n, "ncalg-rule") for n in (2, 3, 4, 5)]


class TestTensorProductOracle:
    @pytest.mark.parametrize("name, order, fault", TENSOR_CASES)
    def test_matches_every_pair_product(self, name, order, fault):
        alg = build_preset(name, order, fault).presentation
        rng = random.Random(f"tensor-{name}-{order}-{fault}")
        for arity in (2, 3):
            ts = [random_tensor(alg, rng, arity) for _ in range(4)]
            ts.append(TensorElement.unit(alg, arity))
            for x in ts:
                for y in ts:
                    got = (x * y).terms
                    want = reference_tensor_product(x, y)
                    assert got == want, (x, y)
                    assert list(got) == list(want), (x, y)

    @pytest.mark.parametrize("name", ["sl2", "nullplane"])
    def test_normal_joins_skip_the_flat_word_cache(self, name):
        alg = build_preset(name, 3).presentation
        n = len(alg.generators)
        low, mid = ((0, 1),), ((0, 2), (n // 2, 1))
        high, top = ((n // 2, 2), (n - 1, 1)), ((n - 1, 2),)
        # every joined slot word is normal: a slot empty, ascending, or one
        # generator meeting itself across the join
        x = TensorElement(alg, 2, {((low, ()), 0): fe(2), ((mid, low), 1): fe((1, 3)),
                                   (((), mid), 2): FieldElem(1, 1)})
        y = TensorElement(alg, 2, {((high, high), 0): fe(-1), (((), ()), 1): fe(3),
                                   ((top, high), 0): fe(5)})
        before = dict(alg._nf_cache)
        got = (x * y).terms
        assert alg._nf_cache == before
        want = reference_tensor_product(x, y)
        assert got == want and list(got) == list(want)

    def test_entries_ascend_in_power_after_verify_hopf(self, capsys):
        assert cli.main(["verify", "hopf", "--order", "3"]) == 0
        capsys.readouterr()
        for name in PRESET_NAMES:
            alg = preset(name, 3).presentation
            entries = list(alg._table.values()) + list(alg._nf_cache.values())
            assert alg._table and alg._nf_cache, name
            for entry in entries:
                powers = [k for _, k, _ in entry]
                assert powers == sorted(powers), (name, entry)


class TestScalarAddition:
    def test_scalars_add_as_multiples_of_the_unit(self):
        alg = preset("sl2", 2).presentation
        x = alg.gen("A") * alg.gen("A_plus")
        for c in (1, -3, rat(1, 2), FieldElem(1), FieldElem(rat(2, 3), 1)):
            unit = alg.unit().scaled(c)
            assert x + c == c + x == x + unit
            assert x - c == x - unit and c - x == unit - x
        assert x + 0 == x - FieldElem(0) == x
        assert (x - x + rat(1, 2)).terms == {((), 0): FieldElem(rat(1, 2))}

    def test_other_operands_are_a_type_error(self):
        alg = preset("sl2", 2).presentation
        x = alg.gen("A")
        t = tensor_pair(x, alg.unit())
        for left, right in ((x, "x"), ("x", x), (x, 1.5), (1.5, x), (x, t), (t, x),
                            (t, 1), (1, t), (t, rat(1, 2)), (FieldElem(1), t), (t, "x")):
            with pytest.raises(TypeError):
                left + right
            with pytest.raises(TypeError):
                left - right


SCALARS = (3, rat(-2, 5), FieldElem(rat(1, 3), -1), FE_ONE, FieldElem(0))


class TestGradedArithmetic:
    """Elements and tensors share one arithmetic (``ncalg.Graded``)."""

    @pytest.mark.parametrize("name", ["sl2", "nullplane", "so22"])
    def test_laws_on_random_values(self, name):
        alg = build_preset(name, 3).presentation
        rng = random.Random(f"graded-{name}")
        kinds = [[random_element(alg, rng) for _ in range(4)] + [alg.zero()]]
        kinds += [[random_tensor(alg, rng, arity) for _ in range(3)]
                  + [TensorElement.zero(alg, arity)] for arity in (2, 3)]
        for values in kinds:
            for x in values:
                assert -(-x) == x and (x - x).is_zero()
                for c in SCALARS:
                    assert c * x == x * c == x.scaled(c)
                for y in values:
                    snap = snapshot(x, y)
                    assert x - y == x + (-y)
                    assert x.commutator(y) == x * y - y * x
                    assert unchanged(snap)

    def test_other_kinds_algebras_arities_and_orders_are_not_equal(self):
        sl2, so22 = preset("sl2", 2).presentation, preset("so22", 2).presentation
        sl2_3 = preset("sl2", 3).presentation
        assert sl2.zero() != TensorElement.zero(sl2, 2)
        assert sl2.zero() != so22.zero() and sl2.zero() != sl2_3.zero()
        assert TensorElement.zero(sl2, 2) != TensorElement.zero(sl2, 3)
        assert TensorElement.zero(sl2, 2) != TensorElement.zero(sl2_3, 2)
        assert sl2.zero() == sl2.zero() and sl2.unit() != 1
        with pytest.raises(AlgebraMismatch):
            sl2.zero() + sl2_3.zero()
        with pytest.raises(ArityMismatch):
            TensorElement.zero(sl2, 2).commutator(TensorElement.zero(sl2, 3))

    def test_a_tensor_plus_an_element_is_a_type_error(self):
        alg = preset("sl2", 2).presentation
        t, x = TensorElement.unit(alg, 2), alg.gen(0)
        for left, right in ((t, x), (x, t)):
            with pytest.raises(TypeError):
                left + right
            with pytest.raises(TypeError):
                left * right


class TestSubstitution:
    def test_identity_map(self):
        alg = preset("sl2", 2).presentation
        x = alg.gen("A_minus") * alg.gen("A") + alg.gen("A_plus")
        images = {g: alg.gen(g) for g in alg.generators}
        assert x.substitute(alg, images) == x

    def test_unmapped_generator(self):
        alg = preset("sl2", 2).presentation
        with pytest.raises(UnmappedGenerator):
            alg.gen("A").substitute(alg, {"A_plus": alg.gen("A_plus")})

    def test_classical_limit_drops_higher_orders(self):
        alg = preset("nullplane", 2).presentation
        x = alg.gen("K_2").commutator(alg.gen("P_plus"))
        assert x.classical_limit() == alg.gen("P_plus").classical_limit()
        assert alg.unit().classical_limit() == alg.unit()


class TestSerialization:
    def test_round_trip(self):
        alg = preset("nullplane", 2).presentation
        x = alg.gen("F_1") * alg.gen("P_1") + alg.unit() * mono(alg, (1, 3), 1)
        data = x.to_dict()
        assert any(t["word"] for t in data["terms"])  # schema: [[gen, exp], ...]
        y = from_dict(alg, data)
        assert x == y

    def test_coeff_quads(self):
        alg = preset("sl2", 1).presentation
        x = alg.gen("A_plus") * mono(alg, (2, 3))
        t = x.to_dict()["terms"][0]
        assert t["word"] == [["A_plus", 1]]
        assert t["coeff"] == [[2, 3, 0, 1], [0, 1, 0, 1]]

    def test_tensor_dict(self):
        alg = preset("sl2", 1).presentation
        t = tensor_pair(alg.gen("A"), alg.gen("A_plus")).to_dict()
        assert t["arity"] == 2
        assert t["terms"][0]["word"] == [[["A", 1]], [["A_plus", 1]]]

    def test_editing_a_document_leaves_later_renders_unchanged(self):
        bundle = preset("nullplane", 3)
        alg = bundle.presentation
        x = (alg.gen("F_1") + alg.gen("P_plus")) ** 2 * alg.gen("E_1")
        t = bundle.hopf.delta[alg.index["F_1"]]
        for y in (x, t):
            before = render_in(y, "json")
            for term in y.to_dict()["terms"]:
                words = term["word"] if isinstance(y, TensorElement) else [term["word"]]
                for w in words:
                    w.append(["P_1", 99])
                    for pair in w:
                        pair[1] = 99
                for quad in term["coeff"]:
                    quad[0] = 7
            assert render_in(y, "json") == before


def plain_commutator(x, y):
    """``x*y - y*x`` through ``__mul__`` and ``__sub__``: two products and a copy."""
    return x * y - y * x


def snapshot(*xs):
    return [(x, dict(x.terms)) for x in xs]


def unchanged(snap):
    return all(x.terms == terms for x, terms in snap)


class TestDifferenceOfProducts:
    """A commutator or residual that sums its second product into the first
    one's dict equals the plain difference, and leaves its operands alone."""

    @pytest.mark.parametrize("name", ["sl2", "nullplane", "so22"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_commutators_match_the_plain_difference(self, name, order):
        alg = build_preset(name, order).presentation
        rng = random.Random(f"commutator-{name}-{order}")
        elems = [random_element(alg, rng) for _ in range(5)]
        elems += [alg.unit(), alg.zero(), alg.gen(0), alg.gen(len(alg.generators) - 1)]
        for x in elems:
            for y in elems:
                snap = snapshot(x, y)
                assert x.commutator(y) == plain_commutator(x, y), (x, y)
                assert unchanged(snap)
        for arity in (2, 3):
            ts = [random_tensor(alg, rng, arity) for _ in range(4)]
            ts += [TensorElement.unit(alg, arity), *cancelling_pair(alg, arity)]
            for x in ts:
                for y in ts:
                    snap = snapshot(x, y)
                    assert x.commutator(y) == plain_commutator(x, y), (x, y)
                    assert unchanged(snap)

    @pytest.mark.parametrize("name", ["sl2", "nullplane", "so22"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_rmat_residuals_match_the_plain_difference(self, name, order):
        bundle = build_preset(name, order)
        alg, hopf = bundle.presentation, bundle.hopf
        rng = random.Random(f"residual-{name}-{order}")
        unit = TensorElement.unit(alg, 2)
        rs = [random_tensor(alg, rng, 2) for _ in range(3)]
        rs += [unit, *cancelling_pair(alg, 2), rmat.preset_r(bundle)]
        for r in rs:
            snap = snapshot(r, *hopf.delta.values())
            r12, r13, r23 = r.embed((0, 1), 3), r.embed((0, 2), 3), r.embed((1, 2), 3)
            assert rmat.qybe_residual(r) == (r12 * r13) * r23 - (r23 * r13) * r12
            assert rmat.triangularity_residual(r) == r.flip() * r - unit
            for i, g in enumerate(alg.generators):
                d = hopf.delta[i]
                assert rmat.intertwiner_residual(r, hopf, g) == d.flip() * r - r * d
            assert unchanged(snap)
        # the preset R passes all three, so each residual cancels to nothing
        r = rmat.preset_r(bundle)
        assert rmat.triangularity_residual(r).is_zero()
        assert all(rmat.intertwiner_residual(r, hopf, g).is_zero() for g in alg.generators)
        if order <= 2:
            assert rmat.qybe_residual(r).is_zero()
