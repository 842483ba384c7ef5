"""Hopf layer: structure maps, axiom checks, subalgebras, injected faults."""

import pytest

from hopf_forge import ncalg
from hopf_forge.algebras import PRESET_NAMES, build_preset, preset
from hopf_forge.coeff import DeformationSeries, FE_ONE, FieldElem
from hopf_forge.hopf import HopfMaps
from hopf_forge.ncalg import NCElement, NonTerminating, UnmappedGenerator, add_term, tensor_pair


class TestCoproduct:
    def test_primitive_p_plus(self):
        b = preset("nullplane", 2)
        alg = b.presentation
        want = tensor_pair(alg.unit(), alg.gen("P_plus")) \
            + tensor_pair(alg.gen("P_plus"), alg.unit())
        assert b.hopf.delta[alg.index["P_plus"]] == want

    def test_coproduct_of_unit(self):
        b = preset("sl2", 2)
        alg = b.presentation
        from hopf_forge.ncalg import TensorElement
        assert b.hopf.coproduct(alg.unit()) == TensorElement.unit(alg, 2)

    def test_multiplicative_extension_matches_tensor_product(self):
        # Delta(P_1 P_plus) computed by extension equals Delta(P_1) Delta(P_plus)
        b = preset("nullplane", 3)
        alg = b.presentation
        d = b.hopf.coproduct(alg.gen("P_1") * alg.gen("P_plus"))
        oracle = b.hopf.delta[alg.index["P_1"]] * b.hopf.delta[alg.index["P_plus"]]
        assert d == oracle

    def test_counit_and_antipode_on_unit(self):
        b = preset("so22", 2)
        alg = b.presentation
        assert b.hopf.counit_of(alg.unit()) == alg.unit()
        assert b.hopf.antipode_of(alg.unit()) == alg.unit()

    def test_counit_vanishes_on_generators(self):
        b = preset("so22", 2)
        for i in range(6):
            assert b.hopf.counit[i] == FieldElem(0)


class TestAxiomChecks:
    @pytest.mark.parametrize("name", ["sl2", "so22", "nullplane", "sl2-jbasis"])
    def test_all_axioms_pass(self, name):
        b = preset(name, 3)
        for rep in b.hopf.run_all_checks():
            assert rep.passed, rep

    def test_antipode_is_antihomomorphism_on_rules(self):
        b = preset("nullplane", 3)
        assert b.hopf.check_antipode_antihom().passed

    def test_corrupted_coproduct_detected(self):
        bad = build_preset("nullplane", 2, fault="hopf-coproduct")
        anti = bad.hopf.check_antipode()
        hom = bad.hopf.check_coproduct_hom()
        assert not anti.passed or not hom.passed
        # coproduct-hom pinpoints the F_1 relations
        assert any("F_1" in f["input"] for f in hom.failures)


    def test_counit_failures_name_their_side(self):
        # a counit of 1 on A_plus breaks both counit axioms on A_plus
        b = preset("sl2", 2)
        counit = {0: FieldElem(1), 1: FieldElem(0), 2: FieldElem(0)}
        maps = HopfMaps(b.presentation, b.hopf.delta, counit, b.hopf.antipode)
        rep = maps.check_counit([((0, 1),)])
        assert [f["input"] for f in rep.failures] \
            == ["A_plus (eps(x1)x2)", "A_plus (x1 eps(x2))"]


def contract_by_mapped_word(hopf, t, f, slot):
    """Reference m((f (x) id) t) / m((id (x) f) t): one element product per
    distinct word in the mapped slot, summed."""
    alg = hopf.algebra
    by_word = {}
    for (ws, k), c in t.terms.items():
        by_word.setdefault(ws[slot], {})[(ws[1 - slot], k)] = c
    out = alg.zero()
    for w, terms in by_word.items():
        rest = NCElement(alg, terms)
        out = out + (f(w) * rest if slot == 0 else rest * f(w))
    return out


def contract_per_right_word(hopf, t, f, slot):
    """Reference ``contract_slot`` terms: the same dict per right-hand word,
    each folded by its word on its own and the results summed."""
    alg = hopf.algebra
    by_right = {}
    for (ws, k), c in t.terms.items():
        for (u, uk), uc in f(ws[slot]).terms.items():
            if k + uk <= alg.order:
                w1, w2 = (u, ws[1]) if slot == 0 else (ws[0], u)
                add_term(by_right.setdefault(w2, {}), (w1, k + uk), c * uc)
    out = {}
    for w2, left in by_right.items():
        alg._misses = 0
        for key, c in alg.fold(left, w2).items():
            add_term(out, key, c)
    return out


class TestContraction:
    # the hopf-coproduct and ncalg-rule faults touch the nullplane preset only
    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    @pytest.mark.parametrize("name,fault", [(name, None) for name in PRESET_NAMES]
                             + [("nullplane", "hopf-coproduct"), ("nullplane", "ncalg-rule")])
    def test_grouped_by_right_word_equals_per_mapped_word(self, name, fault, order):
        hopf = (build_preset(name, order, fault) if fault else preset(name, order)).hopf
        residual = False
        for w in hopf.default_test_words():
            t = hopf.coproduct_word(w)
            for f in (hopf.counit_word, hopf.antipode_word):
                for slot in (0, 1):
                    got = hopf.contract_slot(t, f, slot)
                    assert got.terms == contract_per_right_word(hopf, t, f, slot), (w, slot)
                    assert got.terms == contract_by_mapped_word(hopf, t, f, slot).terms
                    if f == hopf.antipode_word and got != hopf.counit_word(w):
                        residual = True
        assert residual == (fault is not None)

    def test_step_bound_counts_per_contraction(self, monkeypatch):
        b = build_preset("so22", 2)
        hopf, alg = b.hopf, b.presentation
        assert hopf.check_antipode().passed  # word images cached: only folds rewrite
        full = dict(alg._table)
        # the entries each contraction fills, from an empty table
        fills = []
        contract = hopf.contract_slot

        def counted(*args):
            out = contract(*args)
            fills.append(alg._misses)
            return out

        monkeypatch.setattr(hopf, "contract_slot", counted)
        alg._table.clear()
        assert hopf.check_antipode().passed
        monkeypatch.undo()
        most = max(fills)
        # one count per contraction, not per check: no contraction fills them all
        assert sum(fills) == len(alg._table) > most
        alg._table.clear()
        monkeypatch.setattr(ncalg, "REWRITE_STEP_LIMIT", most)
        assert hopf.check_antipode().passed
        assert all(alg._table[key] == full[key] for key in alg._table)
        alg._table.clear()
        monkeypatch.setattr(ncalg, "REWRITE_STEP_LIMIT", most - 1)
        with pytest.raises(NonTerminating, match="exceeded") as err:
            hopf.check_antipode()
        assert any(entry.name == "contract_slot" for entry in err.traceback)
        # only complete entries were stored, each as the unbounded run made it
        assert all(alg._table[key] == full[key] for key in alg._table)


class TestCoassociativityResidual:
    def broken_sl2(self):
        """sl2 with Delta(A_plus) = A_plus (x) A, which is not coassociative."""
        b = preset("sl2", 3)
        alg = b.presentation
        delta = {**b.hopf.delta, 0: tensor_pair(alg.gen("A_plus"), alg.gen("A"))}
        return HopfMaps(alg, delta, b.hopf.counit, b.hopf.antipode)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_summed_into_one_tensor_equals_the_difference(self, name):
        hopf = preset(name, 3).hopf
        for maps in (hopf, self.broken_sl2()):
            for w in maps.default_test_words():
                t = maps.coproduct_word(w)
                before = dict(t.terms)
                left, right = maps.delta_on_slot(t, 0), maps.delta_on_slot(t, 1)
                want = (left - right).terms
                out = maps.delta_on_slot(t, 0)
                assert maps.delta_on_slot(-t, 1, out=out) is out
                assert out.terms == want
                assert t.terms == before

    def test_failures_carry_the_residual(self):
        maps = self.broken_sl2()
        rep = maps.check_coassociativity([((0, 1),)])
        assert [f["input"] for f in rep.failures] == ["A_plus"]
        t = maps.coproduct_word(((0, 1),))
        assert not (maps.delta_on_slot(t, 0) - maps.delta_on_slot(t, 1)).is_zero()


class TestPrimitiveGenerators:
    def test_tables(self):
        assert preset("so22", 2).hopf.primitive_generators() == ["P", "P0_hat"]
        assert preset("nullplane", 2).hopf.primitive_generators() == ["P_plus", "E_1"]
        assert preset("sl2", 2).hopf.primitive_generators() == ["A_plus"]


class TestSubalgebra:
    def test_stability_group_closes(self):
        b = preset("nullplane", 3)
        rep = b.hopf.subalgebra_check(("P_plus", "P_1", "E_1", "K_2"))
        assert rep.passed

    def test_p_minus_alone_fails(self):
        b = preset("nullplane", 3)
        rep = b.hopf.subalgebra_check(("P_minus",))
        assert not rep.passed
        assert any("Delta(P_minus)" in f["input"] for f in rep.failures)

    def test_full_set_passes(self):
        b = preset("nullplane", 2)
        assert b.hopf.subalgebra_check(b.presentation.generators).passed

    def test_empty_subset_rejected(self):
        b = preset("nullplane", 2)
        with pytest.raises(ValueError):
            b.hopf.subalgebra_check(())


class TestTransportedStructure:
    def test_jbasis_counit_is_scalar_zero(self):
        b = preset("sl2-jbasis", 3)
        for i in range(3):
            assert b.hopf.counit[i] == FieldElem(0)

    def test_jbasis_primitive(self):
        assert preset("sl2-jbasis", 3).hopf.primitive_generators() == ["J_plus"]


class TestBialgebraWithoutAntipode:
    """HopfMaps built without an antipode: every antipode use raises the
    documented error, not a KeyError from the empty antipode map."""

    def bialgebra(self):
        hopf = preset("sl2", 2).hopf
        return HopfMaps(hopf.algebra, hopf.delta, hopf.counit)

    def test_axioms_without_the_antipode_still_run(self):
        b = self.bialgebra()
        assert b.check_coassociativity().passed
        assert b.check_counit().passed

    def test_antipode_antihom_raises_unmapped_generator(self):
        with pytest.raises(UnmappedGenerator):
            self.bialgebra().check_antipode_antihom()

    def test_subalgebra_check_raises_unmapped_generator(self):
        with pytest.raises(UnmappedGenerator):
            self.bialgebra().subalgebra_check(("A_plus",))
