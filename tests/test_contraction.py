"""Contraction of so(2,2) onto the null-plane algebra with eps bookkeeping."""

import random
import time

import pytest

import hopf_forge.contraction as ctr
from hopf_forge import rmat
from hopf_forge.algebras import preset
from hopf_forge.coeff import FE_ONE, FieldElem, rat
from hopf_forge.contraction import Contraction, contract_so22
from hopf_forge.ncalg import flatten


def _sample_words(count=40):
    rng = random.Random(5)
    return [tuple(rng.randrange(6) for _ in range(rng.randint(1, 4))) for _ in range(count)]


class TestEpsPower:
    def test_power_read_off_the_key(self):
        c = Contraction(preset("nullplane", 2))
        idx = c.np.presentation.index
        # d(P_plus) = d(P_1) = 1, d(K_2) = 0
        word = ((idx["P_plus"], 2), (idx["P_1"], 1), (idx["K_2"], 3))
        assert c.eps_power(0, word, 0) == -3
        assert c.eps_power(3, word, 2) == 2
        assert c.eps_power(1, (), 1) == 2

    def test_normal_forms_have_no_eps_poles(self):
        # a product of generators has eps offset d(word); rewriting it by the
        # contracted rules never takes a term's eps power below zero
        c = Contraction(preset("nullplane", 2))
        for flat in _sample_words():
            offset = sum(c.scale[g][1] for g in flat)
            assert all(c.eps_power(offset, w, k) >= 0
                       for w, k, _ in c.alg.normal_form_of_word(flat)), flat

    def test_eps_one_is_so22_in_scaled_generators(self):
        # at eps = 1 the map g -> c_g * S_g (the eps algebra is in z) is a
        # homomorphism onto so(2,2): a normal form of the contracted algebra,
        # mapped and normalized in so(2,2), is the so(2,2) normal form of the
        # image word
        c = Contraction(preset("nullplane", 2))
        so_alg = c.so22.presentation
        for flat in _sample_words():
            factor = FE_ONE
            for g in flat:
                factor = factor * c.scale[g][2]
            want = so_alg.normalize([(tuple(c.scale[g][0] for g in flat), 0, factor)])
            raw = []
            for w, k, a in c.alg.normal_form_of_word(flat):
                scalar = a
                for g in flatten(w):
                    scalar = scalar * c.scale[g][2]
                raw.append((tuple(c.scale[g][0] for g in flatten(w)), k, scalar))
            assert so_alg.normalize(raw) == want, flat

    def test_rule_offsets(self):
        c = Contraction(preset("nullplane", 2))
        np_alg = c.np.presentation
        j, i = np_alg.index["P_minus"], np_alg.index["P_plus"]
        assert c.rule_offset(j, i) == 2
        assert c.rule_offset(np_alg.index["F_1"], np_alg.index["E_1"]) == 0


class TestContractionSuite:
    def test_all_reports_pass(self):
        for rep in contract_so22(preset("nullplane", 3)):
            assert rep.passed, rep

    def test_build_time_counts_in_the_first_report(self, monkeypatch):
        real = ctr.transport

        def slow(*args, **kwargs):
            time.sleep(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(ctr, "transport", slow)
        reports = contract_so22(preset("nullplane", 2))
        assert reports[0].check == "contraction-commutators"
        assert reports[0].seconds >= 0.2

    def test_k2_pminus_rule(self):
        # the contracted [K_2, P_minus] is exactly -P_minus - w P_1^2
        c = Contraction(preset("nullplane", 3))
        np_alg = c.np.presentation
        j, i = np_alg.index["K_2"], np_alg.index["P_minus"]
        poles, got = c.limit(c.commutator(j, i), c.rule_offset(j, i))
        assert not poles
        want = np_alg.gen("K_2").commutator(np_alg.gen("P_minus"))
        assert got == want
        explicit = -(np_alg.gen("P_minus")
                     + (np_alg.gen("P_1") ** 2).scaled(FE_ONE, 1))
        assert got == explicit

    def test_contracted_coproduct_k2(self):
        c = Contraction(preset("nullplane", 3))
        assert c.check_coproducts().passed

    def test_casimir_prefactors_as_stated(self):
        rep = Contraction(preset("nullplane", 3)).check_casimirs()
        assert rep.passed, rep


class TestPoleDetection:
    def test_wrong_scale_reports_poles(self, monkeypatch):
        # dropping the eps factor of P_minus must surface as an eps pole
        bad = dict(ctr.CONTRACTION_MAP)
        so_name, d, c = bad["P_minus"]
        bad["P_minus"] = (so_name, 0, c)
        monkeypatch.setattr(ctr, "CONTRACTION_MAP", bad)
        con = Contraction(preset("nullplane", 2))
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
        # z = sqrt2 eps w: the eps-algebra scalar z^k carries eps^k, so
        # eps^-k z^k (offset -k) is 2 w^2 for k = 2 and 2 sqrt2 w^3 for k = 3
        c = Contraction(preset("nullplane", 3))
        np_alg = c.np.presentation
        for k, scalar in ((2, FieldElem(2)), (3, FieldElem(0, 2))):
            poles, got = c.limit(c.alg.scalar(FE_ONE, k), -k)
            assert not poles
            assert got == np_alg.scalar(scalar, k)
        assert c.eps_power(0, (), 2) == 2


class TestContractedUniversalR:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_so22_r_contracts_to_nullplane_r(self, n):
        # the so(2,2) universal R, mapped into the eps algebra (where its
        # image words are normal ordered by the contracted rules), has no eps
        # pole at offset 0, and its eps^0 part is the null-plane universal R
        c = Contraction(preset("nullplane", n))
        r = rmat.preset_r(preset("so22", n)).substitute(c.alg, c.eps.aux["alpha"])
        poles, got = c.limit(r, 0)
        assert poles == []
        assert got == rmat.preset_r(preset("nullplane", n))


class TestContractedAntipodeAndCounit:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_antipode_contracts_to_nullplane_antipode(self, n):
        # the eps antipode of a generator of weight d has eps offset d, like
        # its coproduct; its eps^0 part is the null-plane antipode
        c = Contraction(preset("nullplane", n))
        for g in range(6):
            poles, got = c.limit(c.eps.hopf.antipode[g], c.scale[g][1])
            assert poles == []
            assert got == c.np.hopf.antipode[g]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_counit_contracts_to_nullplane_counit(self, n):
        c = Contraction(preset("nullplane", n))
        for g in range(6):
            poles, got = c.limit(c.alg.scalar(c.eps.hopf.counit[g]), c.scale[g][1])
            assert poles == []
            assert got == c.np.presentation.scalar(c.np.hopf.counit[g])
