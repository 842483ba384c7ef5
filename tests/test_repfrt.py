"""Matrix representation, Sklyanin brackets, RTT quantization, quantum plane."""

import random

import pytest

from hopf_forge import repfrt
from hopf_forge.algebras import preset
from hopf_forge.coeff import FE_ONE, FE_SQRT2, FE_ZERO, FieldElem, rat
from hopf_forge.ratfunc import Polynomial
from hopf_forge.repfrt import (COORD_NAMES, RING12, _embed64, check_group_coproduct,
                               check_matrix_r, check_matrix_rep,
                               check_poisson_jacobi, check_poisson_table,
                               check_quantum_plane, check_rtt,
                               check_weyl_correspondence, expected_poisson_table,
                               group_coproduct, ideal_reduce, kron, lvar, mat_add,
                               mat_mul, matrix_r, matrix_rep, poisson_bracket,
                               quantum_presentation, sklyanin_table)
from hopf_forge.rmat import preset_r

HALF = FieldElem(rat(1, 2))


def bracket(x, y):
    tab = sklyanin_table()
    i, j = COORD_NAMES.index(x), COORD_NAMES.index(y)
    return tab[(i, j)] if i < j else -tab[(j, i)]


class TestMatrixRep:
    def test_homomorphism_and_nilpotency(self):
        assert check_matrix_rep().passed

    def test_e1_f1_bracket(self):
        rep = matrix_rep()
        got = mat_mul(rep["E_1"], rep["F_1"])
        back = mat_mul(rep["F_1"], rep["E_1"])
        comm = mat_add(got, back, -1)
        assert comm == rep["K_2"]

    def test_pplus_squared_vanishes(self):
        rep = matrix_rep()
        sq = mat_mul(rep["P_plus"], rep["P_plus"])
        assert sq == {}

    def test_pplus_p1_commute(self):
        rep = matrix_rep()
        ab = mat_mul(rep["P_plus"], rep["P_1"])
        ba = mat_mul(rep["P_1"], rep["P_plus"])
        assert ab == ba

    def test_displayed_entries(self):
        rep = matrix_rep()
        assert rep["P_plus"][1, 0, 0] == HALF and rep["P_plus"][3, 0, 0] == HALF
        assert rep["P_minus"][1, 0, 0] == FE_ONE and rep["P_minus"][3, 0, 0] == FieldElem(-1)
        assert rep["P_1"][2, 0, 0] == FE_ONE
        assert rep["E_1"][2, 3, 0] == -HALF
        assert rep["F_1"][3, 2, 0] == FieldElem(-1)
        assert rep["K_2"][1, 3, 0] == FE_ONE and rep["K_2"][3, 1, 0] == FE_ONE


# -- the sparse graded product against a dense one -------------------------------

SIZE = 4
ENTRIES = (FieldElem(1), FieldElem(-1), FieldElem(2), HALF, FE_SQRT2)


def random_graded(rng, density=0.4, top=3):
    return {(i, j, k): rng.choice(ENTRIES)
            for i in range(SIZE) for j in range(SIZE) for k in range(top + 1)
            if rng.random() < density}


def dense_product(a, b, top):
    """Every entry and power of a*b summed in full, zeros dropped only at the end."""
    out = {}
    for i in range(SIZE):
        for j in range(SIZE):
            for k in range(top + 1):
                acc = FE_ZERO
                for m in range(SIZE):
                    for k1 in range(k + 1):
                        acc = acc + (a.get((i, m, k1), FE_ZERO)
                                     * b.get((m, j, k - k1), FE_ZERO))
                if not acc.is_zero():
                    out[(i, j, k)] = acc
    return out


class Unmultipliable:
    """An entry whose product must never be formed."""

    def __mul__(self, other):
        raise AssertionError("a pair above the top power was multiplied")

    __rmul__ = __mul__


class TestSparseMatMul:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_dense_product(self, seed):
        rng = random.Random(f"mat-mul-{seed}")
        a, b = random_graded(rng), random_graded(rng)
        top = rng.randint(0, 4)
        got = mat_mul(a, b, top)
        assert got == dense_product(a, b, top)
        assert all(k <= top and not v.is_zero() for (_, _, k), v in got.items())

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_cancellation_stores_nothing(self, seed):
        # [a | a] times [b ; -b] is a*b - a*b: every entry cancels
        rng = random.Random(f"mat-cancel-{seed}")
        a, b = random_graded(rng), random_graded(rng)
        wide = {**a, **{(i, j + SIZE, k): v for (i, j, k), v in a.items()}}
        tall = {**b, **{(i + SIZE, j, k): -v for (i, j, k), v in b.items()}}
        assert mat_mul(a, b, 3)
        assert mat_mul(wide, tall, 3) == {}

    @pytest.mark.parametrize("top", range(3))
    def test_pairs_above_top_are_not_multiplied(self, top):
        rng = random.Random(f"mat-top-{top}")
        a, b = random_graded(rng, top=top), random_graded(rng, top=top)
        want = mat_mul(a, b, top)
        a[(0, 1, top + 1)] = Unmultipliable()
        b[(1, 0, top + 1)] = Unmultipliable()
        assert mat_mul(a, b, top) == want


class TestKernelAgainstRepresentation:
    """The universal R from the rewriting kernel, pushed through the 4x4
    representation on both tensor slots, is the matrix R."""

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_rho_rho_of_universal_r_is_matrix_r(self, order):
        alg = preset("nullplane", order).presentation
        rep = matrix_rep()
        identity = {(i, i, 0): FE_ONE for i in range(4)}

        def rho(word):
            out = identity
            for g, e in word:
                for _ in range(e):
                    out = mat_mul(out, rep[alg.generators[g]])
            return out

        got = {}
        for ((w1, w2), k), c in preset_r("nullplane", order).terms.items():
            piece = {(i, j, k): v for (i, j, _), v in kron(rho(w1), rho(w2)).items()}
            got = mat_add(got, piece, c)
        assert got == matrix_r(order)


class TestMatrixR:
    def test_qybe_triangularity_exact(self):
        assert check_matrix_r(3).passed

    @pytest.mark.parametrize("slots", [(0, 1), (0, 2), (1, 2)])
    def test_embedding_matches_a_scan_of_all_index_pairs(self, slots):
        r = matrix_r(3)
        other = ({0, 1, 2} - set(slots)).pop()
        sites = [((a >> 4) & 3, (a >> 2) & 3, a & 3) for a in range(64)]
        want = {}
        for a, ia in enumerate(sites):
            for b, ib in enumerate(sites):
                if ia[other] == ib[other]:
                    row, col = 4 * ia[slots[0]] + ia[slots[1]], 4 * ib[slots[0]] + ib[slots[1]]
                    for k in (0, 1):
                        if (row, col, k) in r:
                            want[(a, b, k)] = r[(row, col, k)]
        assert _embed64(r, slots) == want


class TestSklyanin:
    def test_translation_brackets(self):
        a1 = RING12.var("a_1")
        am = RING12.var("a_minus")
        assert bracket("a_plus", "a_1") == a1 * FieldElem(-2)
        assert bracket("a_plus", "a_minus") == am * FieldElem(-2)
        assert bracket("a_1", "a_minus").is_zero()

    def test_lorentz_sector_commutes(self):
        for m in range(3):
            for n in range(3):
                for m2 in range(3):
                    for n2 in range(3):
                        if (m, n) < (m2, n2):
                            assert bracket(f"L{m}{n}", f"L{m2}{n2}").is_zero()

    def test_lorentz_translation_bracket_formula(self):
        # {L[mu][nu], a_minus} = 1/2 (mu-1)^2 (nu-1) + 1/2 (L[mu][0]+L[mu][2]) (L[0][nu]-L[2][nu])
        for mu in range(3):
            for nu in range(3):
                want = RING12.constant(FieldElem(rat((mu - 1) ** 2 * (nu - 1), 2))) \
                    + (lvar(mu, 0) + lvar(mu, 2)) * (lvar(0, nu) - lvar(2, nu)) * HALF
                diff = ideal_reduce(bracket(f"L{mu}{nu}", "a_minus") - want)
                assert diff.is_zero(), (mu, nu)

    def test_published_table_matches(self):
        assert check_poisson_table().passed

    def test_jacobi(self):
        assert check_poisson_jacobi().passed

    def test_jacobi_catches_a_scaled_bracket(self, monkeypatch):
        real = sklyanin_table()
        key = (COORD_NAMES.index("a_plus"), COORD_NAMES.index("a_1"))
        bad = dict(real)
        bad[key] = real[key] * 2
        monkeypatch.setattr(repfrt, "sklyanin_table", lambda: bad)
        rep = check_poisson_jacobi()
        assert not rep.passed
        triples = [f["input"].strip("()").split(",") for f in rep.failures]
        assert any("a_plus" in t and "a_1" in t for t in triples), triples
        monkeypatch.undo()
        assert check_poisson_jacobi().passed

    def test_leibniz_extension(self):
        x = RING12.var("a_plus")
        y = RING12.var("a_1")
        f = y * y
        assert poisson_bracket(x, f) == y * bracket("a_plus", "a_1") * 2


class TestRTT:
    def test_residuals_vanish(self):
        assert check_rtt(2).passed

    def test_corrupted_rule_detected(self):
        rep = check_rtt(2, fault="repfrt-rule")
        assert not rep.passed
        assert rep.failures[0]["input"].startswith("entry")

    def test_w0_specialization_commutes(self):
        alg = quantum_presentation(2)
        for j in range(len(COORD_NAMES)):
            for i in range(j):
                cl = alg.gen(j).commutator(alg.gen(i)).classical_limit()
                assert cl.is_zero()


class TestWeyl:
    def test_table_wide_correspondence(self):
        assert check_weyl_correspondence(2).passed

    def test_specific_pair(self):
        alg = quantum_presentation(2)
        i, j = alg.index["a_plus"], alg.index["a_minus"]
        got = alg.gen(j).commutator(alg.gen(i))
        # [a_minus, a_plus] = +2w a_minus
        want = alg.gen("a_minus").scaled(FieldElem(2), 1)
        assert got == want


class TestGroupCoproduct:
    def test_full_check(self):
        assert check_group_coproduct(2).passed

    def test_lorentz_coproduct_shape(self):
        alg = quantum_presentation(2)
        delta = group_coproduct(alg)
        d = delta[alg.index["L01"]]
        # Delta(L[0][1]) = sum_s L[0][s] (x) L[s][1]
        keys = {ws for ws, _ in d.terms}
        want = {((((alg.index[f"L0{s}"], 1),), ((alg.index[f"L{s}1"], 1),)))
                for s in range(3)}
        assert keys == want


class TestQuantumPlane:
    def test_relations_and_consistency(self):
        assert check_quantum_plane(2).passed

    def test_xplus_xminus_rule(self):
        from hopf_forge.repfrt import quantum_plane
        alg = quantum_plane(2)
        got = alg.gen("x_plus").commutator(alg.gen("x_minus"))
        want = alg.gen("x_minus").scaled(FieldElem(-2), 1)
        assert got == want

    def test_1plus1_restriction(self):
        # the (x_plus, x_minus) pair alone closes: the rule involves no x_1
        from hopf_forge.repfrt import quantum_plane
        alg = quantum_plane(2)
        comm = alg.gen("x_plus").commutator(alg.gen("x_minus"))
        assert set(g for w, _ in comm.terms for g, _ in w) <= {alg.index["x_minus"]}
