"""R-matrices: construction, Yang-Baxter checks, classical limit, cocommutators."""

from dataclasses import replace

import pytest

from hopf_forge.algebras import classical_presentation, preset
from hopf_forge.coeff import FE_ONE, FieldElem
from hopf_forge.ncalg import TensorElement
from hopf_forge.rmat import (NotAntisymmetric, build_universal_r,
                             check_classical_r, check_cocommutator_link,
                             check_cybe, check_factorization, check_intertwiner,
                             check_np_cocommutator_table, check_qybe,
                             check_triangularity, classical_r_of_preset,
                             cocommutator, cybe_residual, extract_classical_r,
                             preset_r, qybe_residual, triangularity_residual)
from hopf_forge.rmat import NP_EXPECTED_COCOMMUTATORS, _legs, _wedge_tensor, skew_first_order




class TestConstruction:
    def test_sl2_first_order(self):
        r = preset_r(preset("sl2", 1))
        alg = preset("sl2", 1).presentation
        ap, a = ((alg.index["A_plus"], 1),), ((alg.index["A"], 1),)
        want = TensorElement.unit(alg, 2) \
            + TensorElement(alg, 2, {((a, ap), 1): FieldElem(1), ((ap, a), 1): FieldElem(-1)})
        assert r == want

    def test_nullplane_first_order(self):
        r = preset_r(preset("nullplane", 1))
        alg = preset("nullplane", 1).presentation

        def w(g):
            return ((alg.index[g], 1),)

        want = TensorElement.unit(alg, 2) + TensorElement(alg, 2, {
            ((w("K_2"), w("P_plus")), 1): FieldElem(2),
            ((w("P_plus"), w("K_2")), 1): FieldElem(-2),
            ((w("E_1"), w("P_1")), 1): FieldElem(2),
            ((w("P_1"), w("E_1")), 1): FieldElem(-2),
        })
        assert r == want

    def test_zero_scalar_gives_unit(self):
        alg = preset("sl2", 2).presentation
        r = build_universal_r(alg, ((FieldElem(0), "A_plus", "A"),))
        assert r == TensorElement.unit(alg, 2)


class TestQYBE:
    def test_sl2_order3(self):
        assert check_qybe(preset("sl2", 3)).passed

    def test_nullplane_order3(self):
        assert check_qybe(preset("nullplane", 3)).passed

    def test_so22_order2(self):
        assert check_qybe(preset("so22", 2)).passed

    def test_residual_holds_one_triple_product_at_a_time(self):
        # (R12 R13) R23 is built first and its factor R12 R13 freed; the second
        # triple product is summed into it, so the peak is about that of one
        import tracemalloc
        from hopf_forge.algebras import build_preset
        r = preset_r(build_preset("so22", 4))
        qybe_residual(*_legs(r))  # fill the normal-form cache outside the measured runs

        def one_side():
            r12, r13, r23 = _legs(r)
            return (r12 * r13) * r23

        peaks = []
        tracemalloc.start()
        try:
            for f in (one_side, lambda: qybe_residual(*_legs(r))):
                tracemalloc.reset_peak()
                f()
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], peaks

    def test_unit_r_trivially_solves(self):
        alg = preset("sl2", 2).presentation
        assert qybe_residual(*_legs(TensorElement.unit(alg, 2))).is_zero()

    def test_corrupted_factor_breaks_intertwining(self):
        from hopf_forge.algebras import build_preset
        from hopf_forge.rmat import build_universal_r, intertwiner_residual
        bad = build_preset("nullplane", 2, fault="rmat-factor")
        r = build_universal_r(bad.presentation, bad.rfactors)
        bad_any = any(
            not intertwiner_residual(r, bad.hopf, g).is_zero()
            for g in bad.presentation.generators)
        assert bad_any


class TestIntertwining:
    @pytest.mark.parametrize("name", ["sl2", "nullplane"])
    def test_presets(self, name):
        assert check_intertwiner(preset(name, 3)).passed

    def test_so22_low_order(self):
        assert check_intertwiner(preset("so22", 2)).passed


class TestTriangularity:
    @pytest.mark.parametrize("name", ["sl2", "so22", "nullplane"])
    def test_presets(self, name):
        assert check_triangularity(preset(name, 3)).passed

    def test_unit_r(self):
        unit = TensorElement.unit(preset("sl2", 2).presentation, 2)
        assert triangularity_residual(unit.flip(), unit, unit).is_zero()


class TestClassicalR:
    def test_so22_wedges(self):
        alg = preset("so22", 2).presentation
        got = extract_classical_r(preset_r(preset("so22", 2)))
        i = alg.index
        # z (J ^ P0 + D ^ P), stored with ordered index pairs
        want = {(i["P0_hat"], i["J_hat"]): FieldElem(-1),
                (i["P"], i["D"]): FieldElem(-1)}
        assert got == want

    def test_nullplane_wedges(self):
        alg = preset("nullplane", 2).presentation
        got = extract_classical_r(preset_r(preset("nullplane", 2)))
        i = alg.index
        want = {(i["P_plus"], i["K_2"]): FieldElem(-2),
                (i["P_1"], i["E_1"]): FieldElem(-2)}
        assert got == want

    def test_matches_factor_reading(self):
        for name in ("sl2", "so22", "nullplane"):
            assert check_classical_r(preset(name, 2)).passed

    def test_symmetric_part_rejected(self):
        alg = preset("sl2", 2).presentation
        r = build_universal_r(alg, ((FE_ONE, "A", "A_plus"),))
        with pytest.raises(NotAntisymmetric):
            extract_classical_r(r)

    def test_linearity_in_factor_scalars(self):
        alg = preset("sl2", 2).presentation
        base = ((FieldElem(-1), "A_plus", "A"), (FE_ONE, "A", "A_plus"))
        tripled = tuple((c * FieldElem(3), l, r) for c, l, r in base)
        r1 = extract_classical_r(build_universal_r(alg, base))
        r3 = extract_classical_r(build_universal_r(alg, tripled))
        assert r3 == {k: v * FieldElem(3) for k, v in r1.items()}


class TestCYBE:
    @pytest.mark.parametrize("name", ["so22", "nullplane"])
    def test_presets(self, name):
        assert check_cybe(preset(name, 2)).passed

    def test_zero_r(self):
        calg = classical_presentation(preset("nullplane", 2))
        assert cybe_residual({}, calg).is_zero()


class TestCocommutators:
    def test_table(self):
        assert check_np_cocommutator_table(preset("nullplane", 2)).passed

    def test_link_reports(self):
        assert check_cocommutator_link(preset("so22", 2)).passed
        assert check_cocommutator_link(preset("nullplane", 2)).passed

    def test_primitive_generators_have_zero_cocommutator(self):
        calg = classical_presentation(preset("nullplane", 2))
        wedges = classical_r_of_preset(preset("nullplane", 2))
        assert cocommutator(wedges, "P_plus", calg).is_zero()
        assert cocommutator(wedges, "E_1", calg).is_zero()


class TestFactorization:
    def test_four_vs_merged(self):
        assert check_factorization(preset("so22", 3)).passed


class TestOneAntisymmetricReader:
    """extract_classical_r and classical_r_of_preset share one reader of pair
    data; the order-0 wedge tensors are t - flip(t)."""

    def test_extract_messages(self):
        alg = preset("sl2", 2).presentation

        def w(*names):
            return tuple((alg.index[g], 1) for g in names)

        def first_order(left, right):
            return TensorElement(alg, 2, {((w(*left), w(*right)), 1): FE_ONE})

        for r, message in (
                (first_order(("A",), ("A_plus", "A")),
                 "first-order term is not generator (x) generator"),
                (first_order(("A",), ("A",)), "diagonal first-order term at A"),
                (build_universal_r(alg, ((FE_ONE, "A", "A_plus"),)),
                 "first-order term at (A,A_plus) has a symmetric part")):
            with pytest.raises(NotAntisymmetric) as e:
                extract_classical_r(r)
            assert str(e.value) == message

    def test_symmetric_recipe_rejected(self):
        bundle = replace(preset("sl2", 2), rfactors=((FE_ONE, "A", "A_plus"),))
        with pytest.raises(NotAntisymmetric) as e:
            classical_r_of_preset(bundle)
        assert str(e.value) == "factor recipe of sl2 is not antisymmetric at first order"

    def test_zero_factor_reads_as_no_wedge(self):
        base = preset("sl2", 2)
        bundle = replace(base, rfactors=((FieldElem(0), "A_plus", "A"), *base.rfactors))
        assert classical_r_of_preset(bundle) == classical_r_of_preset(base)

    def test_wedge_orientation(self):
        calg = classical_presentation(preset("nullplane", 2))
        i, j, c = calg.index["P_1"], calg.index["E_1"], FieldElem(3, 2)
        assert _wedge_tensor(calg, {(j, i): -c}) == _wedge_tensor(calg, {(i, j): c})
        assert not _wedge_tensor(calg, {(i, j): c}).is_zero()

    @pytest.mark.parametrize("g", ["F_1", "K_2"])
    def test_skew_first_order_is_the_table(self, g):
        bundle = preset("nullplane", 2)
        calg = classical_presentation(bundle)
        d = bundle.hopf.delta[bundle.presentation.index[g]]
        want = _wedge_tensor(calg, NP_EXPECTED_COCOMMUTATORS[g])
        assert not want.is_zero()
        assert skew_first_order(d, calg) == want
