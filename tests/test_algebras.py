"""Preset catalog: relation tables, Casimirs, limits, two-copy, basis change."""

import dataclasses
import gc
import weakref

import pytest

from hopf_forge.algebras import (PRESET_NAMES, SO22_GENERATORS, build_preset, build_twocopy,
                                 check_basis_change, check_casimir_centrality,
                                 check_classical_limits, cross_check_two_copy, exp_gen,
                                 preset, PresetConstructionError,
                                 transport)
from hopf_forge.coeff import FieldElem, rat
from hopf_forge.contraction import Contraction
from hopf_forge.ncalg import MissingRule, tensor_pair


def fe(value):
    return FieldElem(rat(*value)) if isinstance(value, tuple) else FieldElem(value)


def mono(alg, value, degree=0):
    """The scalar value * param**degree as an element."""
    return alg.scalar(fe(value), degree)


class TestNullplaneTable:
    def test_k2_pplus(self):
        alg = preset("nullplane", 2).presentation
        got = alg.gen("K_2").commutator(alg.gen("P_plus"))
        want = alg.element({(((0, 1),), 0): fe(1),
                            (((0, 2),), 1): fe(1),
                            (((0, 3),), 2): fe((2, 3))})
        assert got == want

    def test_zero_pairs(self):
        alg = preset("nullplane", 3).presentation
        for x, y in (("P_plus", "P_1"), ("P_plus", "P_minus"), ("P_plus", "E_1"),
                     ("P_1", "P_minus"), ("P_1", "K_2"), ("P_minus", "F_1")):
            assert alg.gen(x).commutator(alg.gen(y)).is_zero()

    def test_e1_f1(self):
        alg = preset("nullplane", 3).presentation
        assert alg.gen("E_1").commutator(alg.gen("F_1")) == alg.gen("K_2")

    def test_k2_e1_carries_exponential(self):
        alg = preset("nullplane", 3).presentation
        got = alg.gen("K_2").commutator(alg.gen("E_1"))
        want = exp_gen(alg, 2, "P_plus") * alg.gen("E_1")
        assert got == want


class TestSo22Table:
    def test_j_c1(self):
        alg = preset("so22", 3).presentation
        got = alg.gen("J_hat").commutator(alg.gen("C_1"))
        jj_dd = alg.gen("J_hat") ** 2 + alg.gen("D") ** 2
        want = alg.gen("C_2") - jj_dd * mono(alg, 1, 1)
        assert got == want

    def test_c1_c2_commute(self):
        alg = preset("so22", 3).presentation
        assert alg.gen("C_1").commutator(alg.gen("C_2")).is_zero()

    def test_coproduct_second_slot_factor(self):
        # Delta(A_minus) = 1 (x) A_minus + A_minus (x) e^{2zA_plus}
        b = preset("sl2", 3)
        alg = b.presentation
        want = tensor_pair(alg.unit(), alg.gen("A_minus")) \
            + tensor_pair(alg.gen("A_minus"), exp_gen(alg, 2, "A_plus"))
        assert b.hopf.delta[alg.index["A_minus"]] == want


class TestCasimirs:
    @pytest.mark.parametrize("name", ["sl2", "so22", "nullplane", "sl2-jbasis"])
    def test_centrality(self, name):
        assert check_casimir_centrality(preset(name, 3)).passed

    def test_classical_mass_casimir(self):
        b = preset("nullplane", 3)
        alg = b.presentation
        cl = b.casimirs["M_q2"].classical_limit()
        want = ((alg.gen("P_minus") * alg.gen("P_plus")) * FieldElem(2)
                - alg.gen("P_1") ** 2).classical_limit()
        assert cl == want

    def test_classical_spin_casimir(self):
        b = preset("nullplane", 3)
        alg = b.presentation
        cl = b.casimirs["L_q"].classical_limit()
        want = (alg.gen("K_2") * alg.gen("P_1") + alg.gen("E_1") * alg.gen("P_minus")
                - alg.gen("F_1") * alg.gen("P_plus")).classical_limit()
        assert cl == want

    def test_classical_limits_report(self):
        assert check_classical_limits(preset("nullplane", 3)).passed

    def test_sl2_classical_bracket(self):
        alg = preset("sl2", 2).presentation
        got = alg.gen("A").commutator(alg.gen("A_plus")).classical_limit()
        assert got == alg.gen("A_plus").classical_limit() * FieldElem(2)


class TestTwoCopy:
    def test_cross_check(self):
        for rep in cross_check_two_copy(preset("so22", 3)):
            assert rep.passed, rep


class TestBasisChange:
    def test_report(self):
        assert check_basis_change(preset("sl2-jbasis", 3)).passed

    def test_jbasis_boost_relation_is_sinh(self):
        # [J_3, J_+] = 2 sinh(z J_+)/z, derived mechanically
        alg = preset("sl2-jbasis", 4).presentation
        got = alg.gen("J_3").commutator(alg.gen("J_plus"))
        want = exp_gen(alg, 1, "J_plus", shift=-1, parity=1) * FieldElem(2)
        assert got == want

    def test_jp_jm_gives_j3(self):
        alg = preset("sl2-jbasis", 4).presentation
        assert alg.gen("J_plus").commutator(alg.gen("J_minus")) == alg.gen("J_3")

    def test_a_wrong_image_fails_the_rules_it_enters(self):
        # the check reads the sl2 rules off ncalg.rule_images: an extra z^2
        # term in the image of A_minus breaks the rules that hold A_minus
        jb = preset("sl2-jbasis", 3)
        jalg = jb.presentation
        alpha = dict(jb.aux["alpha"])
        alpha["A_minus"] = alpha["A_minus"] + jalg.scalar(FieldElem(1), 2) * jalg.gen("J_3")
        rep = check_basis_change(dataclasses.replace(jb, aux={**jb.aux, "alpha": alpha}))
        labels = [f["input"] for f in rep.failures]
        assert "[A_minus,A]" in labels and "[A,A_plus]" not in labels

    def test_alpha_classical_limit_is_relabeling(self):
        jb = preset("sl2-jbasis", 3)
        alpha = jb.aux["alpha"]
        jalg = jb.presentation
        assert alpha["A_plus"] == jalg.gen("J_plus")
        assert alpha["A"].classical_limit() == jalg.gen("J_3")


class TestTransport:
    def test_rules_belong_to_their_presentation(self):
        for alg in (preset("sl2-jbasis", 3).presentation, Contraction(preset("nullplane", 2)).alg):
            assert all(rhs.algebra is alg for rhs in alg.rules.values()), alg

    def test_derived_presentations_die_with_their_last_reference(self):
        # a presentation holds no element of itself, so no reference cycle
        # keeps the eps or two-copy presentation alive until a collection
        gc.disable()
        try:
            contraction = Contraction(preset("nullplane", 2))
            eps = weakref.ref(contraction.alg)
            twocopy = build_twocopy(2)
            two = weakref.ref(twocopy[0])
            del contraction, twocopy
            assert eps() is None and two() is None
        finally:
            gc.enable()

    def test_identity_change_keeps_the_preset(self):
        sl2 = preset("sl2", 3)
        src = sl2.presentation
        same = transport(sl2, "sl2-again", src.generators,
                         lambda alg: {g: alg.gen(g) for g in src.generators},
                         {g: src.gen(g) for g in src.generators}, src.latex_names)
        assert {k: repr(r) for k, r in same.presentation.rules.items()} \
            == {k: repr(r) for k, r in src.rules.items()}
        for table in ("delta", "antipode", "counit"):
            assert {i: repr(x) for i, x in getattr(same.hopf, table).items()} \
                == {i: repr(x) for i, x in getattr(sl2.hopf, table).items()}
        assert repr(same.casimirs["C_z"]) == repr(sl2.casimirs["C_z"])

    def test_image_that_needs_a_rule_raises(self):
        # in the reversed order P > P0_hat, the image of the P*P0_hat words of
        # [P, D] is not normal ordered, and no rule exists yet to reorder it
        so22 = preset("so22", 2)
        src = so22.presentation
        gens = tuple(reversed(SO22_GENERATORS))
        with pytest.raises(MissingRule):
            transport(so22, "so22-reversed", gens, lambda alg: {g: alg.gen(g) for g in gens},
                      {g: src.gen(g) for g in gens}, src.latex_names)


class TestFaultInjection:
    def test_corrupted_rule_aborts_construction(self):
        with pytest.raises(PresetConstructionError):
            preset("nullplane", 2, fault="ncalg-rule")

    def test_corrupted_casimir_detected(self):
        bad = build_preset("nullplane", 2, fault="algebras-casimir")
        alg = bad.presentation
        res = bad.casimirs["M_q2"].commutator(alg.gen("E_1"))
        assert not res.is_zero()

    def test_unknown_fault_rejected(self):
        with pytest.raises(ValueError):
            preset("nullplane", 2, fault="no-such-fault")

    def test_bundle_carries_its_fault_and_consistency_report(self):
        for name in PRESET_NAMES:
            bundle = preset(name, 2)
            assert bundle.fault is None and bundle.consistency.passed
            assert "_consistency" not in bundle.aux
        faulted = preset("nullplane", 2, fault="diffrep-op")
        assert faulted.fault == "diffrep-op" and faulted is not preset("nullplane", 2)


class TestPresetHygiene:
    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            build_preset("bogus", 2)

    def test_memoized_identity(self):
        assert preset("sl2", 2) is preset("sl2", 2)
        assert preset("sl2", 2) is not preset("sl2", 3)

    def test_rules_are_normal_ordered(self):
        for name in ("sl2", "so22", "nullplane", "sl2-jbasis"):
            alg = preset(name, 3).presentation
            for rhs in alg.rules.values():
                for w, _ in rhs.terms:
                    flat = [g for g, e in w for _ in range(e)]
                    assert flat == sorted(flat)
