"""Contraction of so(2,2) onto the null-plane algebra with eps bookkeeping."""

import pytest

import hopf_forge.contraction as ctr
from hopf_forge.algebras import preset
from hopf_forge.coeff import FE_ONE, FieldElem, rat
from hopf_forge.contraction import Contraction, EpsLaurent, contract_so22


class TestEpsLaurent:
    def test_ring_ops(self):
        a = EpsLaurent({0: FieldElem(1, 2), -1: FieldElem(rat(1, 3))})
        b = EpsLaurent({1: FieldElem(3)})
        assert (a + b) - b == a
        prod = a * b
        assert prod.min_eps() == 0
        assert prod.slice(1) == FieldElem(3, 6)
        assert prod.slice(0) == FieldElem(1)

    def test_shift_and_slice(self):
        a = EpsLaurent({-2: FieldElem(1)})
        assert a.shift_eps(2).min_eps() == 0
        assert a.slice(0) is None


class TestContractionSuite:
    def test_all_reports_pass(self):
        for rep in contract_so22(3):
            assert rep.passed, rep

    def test_k2_pminus_rule(self):
        # the contracted [K_2, P_minus] is exactly -P_minus - w P_1^2
        c = Contraction(3)
        np_alg = c.np.presentation
        j, i = np_alg.index["K_2"], np_alg.index["P_minus"]
        got = c.eps0_element(c._rule_commutators[(j, i)])
        want = np_alg.gen("K_2").commutator(np_alg.gen("P_minus"))
        assert got == want
        explicit = -(np_alg.gen("P_minus")
                     + (np_alg.gen("P_1") ** 2).scaled(FE_ONE, 1))
        assert got == explicit

    def test_contracted_coproduct_k2(self):
        c = Contraction(3)
        assert c.check_coproducts().passed

    def test_casimir_prefactors_as_stated(self):
        rep = Contraction(3).check_casimirs()
        assert rep.passed, rep


class TestPoleDetection:
    def test_wrong_scale_reports_poles(self, monkeypatch):
        # dropping the eps factor of P_minus must surface as an eps pole
        bad = dict(ctr.CONTRACTION_MAP)
        so_name, d, c = bad["P_minus"]
        bad["P_minus"] = (so_name, 0, c)
        monkeypatch.setattr(ctr, "CONTRACTION_MAP", bad)
        con = Contraction(2)
        rep = con.check_commutators()
        assert not rep.passed
        assert any("pole" in f["residual"] for f in rep.failures)


class TestScaleData:
    def test_map_constants(self):
        half_sqrt2 = FieldElem(0, rat(1, 2))
        assert ctr.CONTRACTION_MAP["P_plus"] == ("P", 1, half_sqrt2)
        assert ctr.CONTRACTION_MAP["K_2"] == ("D", 0, FE_ONE)
        assert ctr.CONTRACTION_MAP["E_1"][2] == -half_sqrt2

    def test_series_map_tracks_sqrt2_powers(self):
        # z^2 -> (sqrt2)^2 eps^2 at the same w-power
        img = Contraction._map_term(FE_ONE, 2)
        assert img.min_eps() == 2
        assert img.slice(2) == FieldElem(2)  # (sqrt2)^2
        assert Contraction._map_term(FE_ONE, 3).slice(3) == FieldElem(0, 2)
