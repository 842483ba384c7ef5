"""Matrix representation, Sklyanin brackets, RTT quantization, quantum plane."""

import random

import pytest

from hopf_forge import repfrt
from hopf_forge.algebras import preset
from hopf_forge.coeff import FE_ONE, FE_SQRT2, FE_ZERO, FieldElem, rat
from hopf_forge.ncalg import NCElement, add_term, tensor_pair
from hopf_forge.ratfunc import PolyRing, Polynomial, leads, reduce_poly
from hopf_forge.repfrt import (COORD_NAMES, L_NAMES, RING12, T_COORDS, T_ENTRIES,
                               InconsistentBivector, _ideal_reduce_slots,
                               _poly_to_element, _reduce_blocks, check_group_coproduct,
                               check_matrix_r, check_matrix_rep,
                               check_poisson_jacobi, check_poisson_table,
                               check_quantum_plane, check_rtt,
                               check_weyl_correspondence, expected_poisson_table,
                               group_coproduct, group_matrix, ideal_reduce, kron, lvar,
                               mat_add, mat_mul, matrix_r, matrix_rep,
                               orthogonality_groebner, orthogonality_quadrics,
                               poisson_bracket, quantum_presentation, quantum_t,
                               site_pairs, sklyanin_table)
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
        for ((w1, w2), k), c in preset_r(preset("nullplane", order)).terms.items():
            piece = {(i, j, k): v for (i, j, _), v in kron(rho(w1), rho(w2)).items()}
            got = mat_add(got, piece, c)
        assert got == matrix_r(order)


class TestMatrixR:
    def test_qybe_triangularity_exact(self):
        assert check_matrix_r(preset("nullplane", 3)).passed

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
        embedded = dict(zip([(0, 1), (0, 2), (1, 2)], site_pairs(r)))
        assert embedded[slots] == want


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

    def test_symmetric_part_of_r_is_inconsistent(self, monkeypatch):
        # a symmetric P_1 (x) P_1 term breaks the antisymmetry of [T (x) T, r],
        # so the read-off brackets cannot satisfy every one of the 256 equations
        real = repfrt._wedge16
        rep = matrix_rep()
        monkeypatch.setattr(repfrt, "_wedge16",
                            lambda: mat_add(real(), kron(rep["P_1"], rep["P_1"])))
        with pytest.raises(InconsistentBivector):
            sklyanin_table.__wrapped__()

    def test_leibniz_extension(self):
        x = RING12.var("a_plus")
        y = RING12.var("a_1")
        f = y * y
        assert poisson_bracket(x, f) == y * bracket("a_plus", "a_1") * 2

    def test_entry_partials_bracket_is_the_leibniz_bracket(self):
        # {x_i, q} as the Jacobi check forms it, from q's cached partials,
        # against the library bracket and a derivative-by-derivative Leibniz
        # sum, for every coordinate x_i and every table entry q
        table = sklyanin_table()

        def reference(i, q):
            out = RING12.zero()
            for y, name in enumerate(COORD_NAMES):
                if y != i:
                    out = out + q.derivative(name) * repfrt._coord_bracket(table, i, y)
            return out

        for key, q in table.items():
            partials = repfrt._partials(q)
            for i, name in enumerate(COORD_NAMES):
                got = repfrt._leibniz(table, ((i, FE_ONE),), partials)
                assert got == poisson_bracket(RING12.var(name), q, table), (name, key)
                assert got == reference(i, q), (name, key)


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

    @pytest.mark.parametrize("order", [2, 4])
    def test_corrupted_rule_detected(self, order):
        rep = check_weyl_correspondence(order, fault="repfrt-rule")
        assert [f["input"] for f in rep.failures] == ["[a_1,a_plus]"]

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

    @pytest.mark.parametrize("order", [2, 4])
    def test_corrupted_rule_detected(self, order):
        rep = check_group_coproduct(order, fault="repfrt-rule")
        assert [f["input"] for f in rep.failures] == [
            "Delta respects [a_1,a_plus]", "Delta respects [a_minus,a_plus]",
            "Delta respects [a_minus,a_1]"]

    def test_checks_share_one_presentation_per_order(self):
        quantum_presentation.cache_clear()
        for check in (check_rtt, check_weyl_correspondence, check_group_coproduct,
                      check_quantum_plane):
            assert check(2).passed, check.__name__
        assert quantum_presentation.cache_info().currsize == 1

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

    def test_a_changed_rule_fails_under_its_label(self, monkeypatch):
        # x_1*x_plus = x_plus*x_1 + 2w*x_1; a w coefficient of 3 no longer
        # matches the bracket of the translations a_1 and a_plus
        good = repfrt.quantum_plane(2)
        rules = good.rules
        terms = dict(rules[(1, 0)].terms)
        terms[(((1, 1),), 1)] = FieldElem(3)
        bad = repfrt.AlgebraPresentation("qplane", good.generators, "w", 2)
        bad.set_rules({**rules, (1, 0): bad.element(terms)})
        monkeypatch.setattr(repfrt, "quantum_plane", lambda order=2: bad)
        labels = [f["input"] for f in check_quantum_plane(2).failures]
        assert "[x_1,x_plus]" in labels and "[x_minus,x_1]" not in labels

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


class TestLayout:
    def test_entry_and_coordinate_tables_are_inverse(self):
        for x, entries in T_COORDS.items():
            back = {}
            for ij, c in entries.items():
                for y, d in T_ENTRIES[ij].items():
                    add_term(back, y, c * d)
            assert back == {x: FE_ONE}, COORD_NAMES[x]
        for ij, coords in T_ENTRIES.items():
            back = {}
            for x, c in coords.items():
                for kl, d in T_COORDS[x].items():
                    add_term(back, kl, c * d)
            assert back == {ij: FE_ONE}, ij
        assert sorted(T_COORDS) == list(range(len(COORD_NAMES)))

    def test_group_element(self):
        t = group_matrix()
        ap, am = RING12.var("a_plus"), RING12.var("a_minus")
        assert t[(0, 0, 0)] == RING12.one()
        assert t[(1, 0, 0)] == ap * HALF + am and t[(3, 0, 0)] == ap * HALF - am
        assert t[(2, 0, 0)] == RING12.var("a_1")
        assert all(t[(m + 1, n + 1, 0)] == lvar(m, n) for m in range(3) for n in range(3))
        assert len(t) == 13

    def test_quantum_t_is_the_group_element_entrywise(self):
        alg = quantum_presentation(2)
        qt = quantum_t(alg)
        assert qt.keys() == group_matrix().keys()
        assert qt[(0, 0, 0)] == alg.unit()
        assert qt[(1, 0, 0)] == alg.gen("a_plus") * HALF + alg.gen("a_minus")


# -- slot-wise ideal reduction against the lifted union of the slot bases -------

def _lift(p, ring, offset):
    """An L-only polynomial of RING12 in ``ring``, its variables from ``offset``."""
    n_l = len(L_NAMES)
    terms = {}
    for m, c in p.terms.items():
        e = RING12.unpack(m)
        assert not any(e[n_l:])
        lifted = [0] * ring.nvars
        lifted[offset:offset + n_l] = e[:n_l]
        terms[ring.pack(lifted)] = c
    return Polynomial(ring, terms)


def lifted_union_reduce(terms, arity):
    """Reference: every slot's L-part in one ring of 9 * arity variables,
    reduced at once by the union of the slots' lifted Groebner bases."""
    n_l = len(L_NAMES)
    ring = PolyRing(tuple(f"s{s}_{v}" for s in range(arity) for v in L_NAMES))
    basis = [_lift(g, ring, s * n_l) for s in range(arity) for g in orthogonality_groebner()]
    blocks = {}
    for (words, k), c in terms.items():
        e = [0] * ring.nvars
        for s, w in enumerate(words):
            for g, ex in w:
                if g < n_l:
                    e[s * n_l + g] = ex
        apart = tuple(tuple((g, ex) for g, ex in w if g >= n_l) for w in words)
        blocks.setdefault((apart, k), {})[ring.pack(e)] = c
    out = {}
    for (apart, k), block in blocks.items():
        for m, c in reduce_poly(Polynomial(ring, block), leads(basis)).terms.items():
            e = ring.unpack(m)
            words = tuple(tuple((g, ex) for g, ex in enumerate(e[s * n_l:(s + 1) * n_l]) if ex)
                          + a for s, a in enumerate(apart))
            add_term(out, (words, k), c)
    return out


def random_word(rng):
    return tuple((g, rng.randint(1, 2)) for g in sorted(rng.sample(range(12), rng.randint(0, 4))))


def random_terms(rng, arity, count=12):
    out = {}
    for _ in range(count):
        add_term(out, (tuple(random_word(rng) for _ in range(arity)), rng.randint(0, 2)),
                 rng.choice(ENTRIES))
    return out


class TestSlotwiseReduction:
    def test_coproduct_commutators_of_all_pairs(self):
        alg = quantum_presentation(2)
        delta = group_coproduct(alg)
        nonzero = 0
        for j in range(len(COORD_NAMES)):
            for i in range(j):
                x = delta[j] * delta[i] - delta[i] * delta[j]
                got = _reduce_blocks(x.terms, 2)
                assert got == lifted_union_reduce(x.terms, 2), (j, i)
                nonzero += bool(got)
        assert nonzero > 0

    @pytest.mark.parametrize("arity", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(8))
    def test_random_tensors(self, arity, seed):
        rng = random.Random(f"slot-reduce-{arity}-{seed}")
        terms = random_terms(rng, arity)
        assert _reduce_blocks(terms, arity) == lifted_union_reduce(terms, arity)

    def test_quadrics_in_each_slot_reduce_to_zero(self):
        alg = quantum_presentation(2)
        rng = random.Random("slot-quadrics")
        for q in orthogonality_quadrics():
            quad = _poly_to_element(alg, q)
            other = alg.element({(random_word(rng), 0): FE_ONE})
            for x in (quad, quad * other, tensor_pair(other, quad), tensor_pair(quad, other)):
                got = _ideal_reduce_slots(x)
                assert got.is_zero() and type(got) is type(x)

    def test_one_slot_elements(self):
        alg = quantum_presentation(2)
        rng = random.Random("slot-elements")
        for _ in range(20):
            x = NCElement(alg, {(w, k): c for ((w,), k), c in random_terms(rng, 1).items()})
            want = {(w, k): c for ((w,), k), c in lifted_union_reduce(
                {((w,), k): c for (w, k), c in x.terms.items()}, 1).items()}
            assert _ideal_reduce_slots(x) == NCElement(alg, want)
