"""Finite-dimensional sector of the null-plane deformation.

Contains the exact 4x4 matrix representation and the 16x16 matrix R (checked
against the matrix Yang-Baxter equation exactly, not just order by order),
the Sklyanin Poisson structure on the Poincare group read off from the
bivector identity, the FRT quantization with its noncommutative coordinate
algebra and RTT residuals, the Weyl-correspondence check, the quantum group
coproduct, and the quantum plane quotient.

Every matrix here (the representation, the symbolic group element, the 16x16
R, its 64x64 embeddings) is one sparse graded matrix ``{(row, col, k): entry}``:
the coefficient of w**k at (row, col), nonzero entries only (``k = 0`` for a
constant matrix), the same graded form as the algebra kernel's terms.  So two
matrices are equal exactly when their dicts are.

Where each coordinate sits in the group element T is one table,
:data:`T_ENTRIES`, with its inverse :data:`T_COORDS` next to it.  The
symbolic T over the commutative ring and over the quantum algebra, the
quantum group coproduct (read off Delta(T) = T (x,) T) and the Sklyanin
brackets (read off [T (x) T, r]) are all built from these two tables.

Conventions (a recurring source of sign errors, so fixed here once):

* Kronecker products are row-major: (A (x) B)[4i+k][4j+l] = A[i][j] B[k][l];
  T1 = T (x) I and T2 = I (x) T.
* The Lorentz block of the group element is L[row][col]; the
  pseudo-orthogonality constraint is L eta L^T = eta with eta = diag(1,-1,-1).
* The Poisson bivector is evaluated as {T (x,) T} = [T (x) T, r] with
  r = 2(D(K_2) ^ D(P_+) + D(E_1) ^ D(P_1)); this is the sign that reproduces
  the published bracket table, the RTT relations and the Weyl correspondence.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .coeff import FE_ONE, FE_ZERO, FieldElem, rat
from .ncalg import (AlgebraPresentation, NCElement, TensorElement, WordMap, add_term,
                    rule_images, tensor_pair)
from .ratfunc import PolyRing, Polynomial, groebner, leads, reduce_poly
from .hopf import HopfMaps
from .report import CheckReport
from .algebras import NP_GENERATORS, classical_bracket

HALF = FieldElem(rat(1, 2))
ETA = (1, -1, -1)

# -- exact 4x4 representation ---------------------------------------------------

_REP_ENTRIES = {
    "P_plus": {(1, 0): HALF, (3, 0): HALF},
    "P_minus": {(1, 0): FE_ONE, (3, 0): FieldElem(-1)},
    "P_1": {(2, 0): FE_ONE},
    "E_1": {(1, 2): HALF, (2, 1): HALF, (2, 3): -HALF, (3, 2): HALF},
    "F_1": {(1, 2): FE_ONE, (2, 1): FE_ONE, (2, 3): FE_ONE, (3, 2): FieldElem(-1)},
    "K_2": {(1, 3): FE_ONE, (3, 1): FE_ONE},
}


def matrix_rep():
    """Generator -> 4x4 sparse graded matrix over FieldElem."""
    return {name: {(i, j, 0): c for (i, j), c in entries.items()}
            for name, entries in _REP_ENTRIES.items()}


def mat_mul(a, b, top=0):
    """Product of sparse graded matrices, keeping the powers of w up to ``top``;
    a pair above ``top`` is skipped before its entries are multiplied."""
    rows = {}
    for (m, j, k), y in b.items():
        rows.setdefault(m, []).append((j, k, y))
    out = {}
    for (i, m, k1), x in a.items():
        for j, k2, y in rows.get(m, ()):
            if k1 + k2 <= top:
                add_term(out, (i, j, k1 + k2), x * y)
    return out


def mat_add(a, b, c=1):
    """``a + c*b`` for sparse graded matrices."""
    out = dict(a)
    for key, v in b.items():
        add_term(out, key, v * c)
    return out


def kron(a, b, d=4):
    """Kronecker product of graded matrices, ``b`` being d x d (row-major,
    powers add)."""
    return {(d * i + k, d * j + l, ka + kb): x * y
            for (i, j, ka), x in a.items() for (k, l, kb), y in b.items()}


def identity(n):
    return {(i, i, 0): FE_ONE for i in range(n)}


def swap(m):
    """``m`` with the last two sites of every index exchanged, each site
    ranging over 4 values: 16h + 4a + b becomes 16h + 4b + a."""
    def site_swap(i):
        h, a, b = i // 16, i // 4 % 4, i % 4
        return 16 * h + 4 * b + a
    return {(site_swap(i), site_swap(j), k): e for (i, j, k), e in m.items()}


def check_matrix_rep(order=0):
    """Lie-homomorphism on all 15 pairs plus nilpotency of D(P_+)."""
    rep = matrix_rep()
    out = CheckReport(check="matrixrep", algebra="nullplane", order=order)
    names = NP_GENERATORS
    for a in range(6):
        for b in range(a + 1, 6):
            x, y = names[a], names[b]
            comm = mat_add(mat_mul(rep[x], rep[y]), mat_mul(rep[y], rep[x]), -1)
            want = {}
            for g, c in classical_bracket(x, y).items():
                want = mat_add(want, rep[g], c)
            if comm != want:
                out.add_failure(f"[D({x}),D({y})]", "mismatch with structure constants")
    if mat_mul(rep["P_plus"], rep["P_plus"]):
        out.add_failure("D(P_plus)^2", "not nilpotent")
    return out


# -- matrix R and the matrix Yang-Baxter equation --------------------------------

def _wedge16():
    rep = matrix_rep()
    w = mat_add(kron(rep["K_2"], rep["P_plus"]), kron(rep["P_plus"], rep["K_2"]), -1)
    w = mat_add(w, kron(rep["E_1"], rep["P_1"]))
    return mat_add(w, kron(rep["P_1"], rep["E_1"]), -1)


def matrix_r(order=3):
    """16x16 R = I (x) I + 2w * wedge as a sparse graded matrix; the w term
    is dropped at order 0."""
    r = identity(16)
    if order >= 1:
        r.update({(i, j, 1): c * 2 for (i, j, _), c in _wedge16().items()})
    return r


def site_pairs(r):
    """R12, R13 and R23: the 16x16 two-site matrix ``r`` on the sites (0, 1),
    (0, 2) and (1, 2) of three."""
    r12 = kron(r, identity(4))
    return r12, swap(r12), kron(identity(4), r, 16)


def check_matrix_r(bundle):
    """Matrix QYBE and triangularity hold exactly (R is linear in w)."""
    from .rmat import classical_r_of_preset  # here, so no other FRT check loads rmat
    order = bundle.order
    out = CheckReport(check="matrix-r", algebra=bundle.name, order=order)
    r = matrix_r(order)
    r12, r13, r23 = site_pairs(r)
    if (mat_mul(mat_mul(r12, r13, order), r23, order)
            != mat_mul(mat_mul(r23, r13, order), r12, order)):
        out.add_failure("matrix QYBE", "nonzero residual")
    if mat_mul(swap(r), r, order) != identity(16):
        out.add_failure("matrix triangularity", "R21 R != I")
    # w = 0 gives the identity
    for i in range(16):
        for j in range(16):
            if r.get((i, j, 0), FE_ZERO) != (FE_ONE if i == j else FE_ZERO):
                out.add_failure("w=0 specialization", f"entry {(i, j)}")
    # the first-order block is the representation of the classical r
    np_alg = bundle.presentation
    rep = matrix_rep()
    acc = {}
    for (i, j), c in classical_r_of_preset(bundle).items():
        gi, gj = np_alg.generators[i], np_alg.generators[j]
        acc = mat_add(acc, kron(rep[gi], rep[gj]), c)
        acc = mat_add(acc, kron(rep[gj], rep[gi]), -c)
    if {(i, j, 0): e for (i, j, k), e in r.items() if k == 1} != acc:
        out.add_failure("first-order block", "does not represent the classical r")
    return out


# -- coordinate ring and the pseudo-orthogonality ideal --------------------------

L_NAMES = tuple(f"L{m}{n}" for m in range(3) for n in range(3))
A_NAMES = ("a_plus", "a_1", "a_minus")
COORD_NAMES = L_NAMES + A_NAMES
RING12 = PolyRing(COORD_NAMES)


def lvar(m, n):
    return RING12.var(f"L{m}{n}")


def orthogonality_quadrics(transposed=False):
    """The six L eta L^T = eta quadrics (mu <= rho); the six L^T eta L = eta
    ones when ``transposed``."""
    out = []
    for mu in range(3):
        for rho in range(mu, 3):
            q = RING12.constant(FieldElem(-ETA[mu] if mu == rho else 0))
            for nu in range(3):
                pair = lvar(nu, mu) * lvar(nu, rho) if transposed else lvar(mu, nu) * lvar(rho, nu)
                q = q + pair * FieldElem(ETA[nu])
            out.append(q)
    return out


@lru_cache(maxsize=None)
def orthogonality_groebner():
    # Seeded with the L^T eta L = eta quadrics too, which spares Buchberger deriving
    # them: as eta^2 = 1, L eta L^T eta = 1 makes eta L^T eta a right inverse of L,
    # over the commutative quotient ring a left inverse as well, so L^T eta L - eta
    # already lies in the ideal of L eta L^T = eta.
    return tuple(groebner(orthogonality_quadrics() + orthogonality_quadrics(transposed=True)))


@lru_cache(maxsize=None)
def orthogonality_leads():
    """The Groebner basis of the ideal, prepared once for :func:`reduce_poly`."""
    return tuple(leads(orthogonality_groebner()))


def ideal_reduce(p):
    return reduce_poly(p, orthogonality_leads())


# -- the symbolic group element --------------------------------------------------
#
# Where each coordinate sits in the group element T is written here once.
# T_ENTRIES maps an entry (row, col) of T to {coordinate index: coefficient}:
# translations in column 0, the Lorentz block L below and right of it; T[0][0]
# is 1 and the rest of row 0 is zero.  T_COORDS is its inverse, each coordinate
# as a combination of entries.

def coord_index(name):
    return RING12.index[name]


T_ENTRIES = {
    (1, 0): {coord_index("a_plus"): HALF, coord_index("a_minus"): FE_ONE},
    (2, 0): {coord_index("a_1"): FE_ONE},
    (3, 0): {coord_index("a_plus"): HALF, coord_index("a_minus"): FieldElem(-1)},
    **{(m + 1, n + 1): {coord_index(f"L{m}{n}"): FE_ONE} for m in range(3) for n in range(3)},
}
T_COORDS = {
    **{coord_index(f"L{m}{n}"): {(m + 1, n + 1): FE_ONE} for m in range(3) for n in range(3)},
    coord_index("a_plus"): {(1, 0): FE_ONE, (3, 0): FE_ONE},
    coord_index("a_1"): {(2, 0): FE_ONE},
    coord_index("a_minus"): {(1, 0): HALF, (3, 0): -HALF},
}


def group_matrix():
    """D(g) with symbolic entries, laid out by :data:`T_ENTRIES`."""
    t = {(0, 0, 0): RING12.one()}
    for (i, j), coords in T_ENTRIES.items():
        p = RING12.zero()
        for x, c in coords.items():
            p = p + RING12.var(COORD_NAMES[x]) * c
        t[(i, j, 0)] = p
    return t


class InconsistentBivector(Exception):
    """The bivector identity assigns two inequivalent brackets to one pair."""


@lru_cache(maxsize=None)
def sklyanin_table():
    """Read the coordinate brackets off {T (x,) T} = [T (x) T, r].

    Entry (4i+k, 4j+l) of the right side is {T_ij, T_kl}, so {x, y} is the
    sum of those entries weighted by the :data:`T_COORDS` coefficients of x
    and y.  Each of the 256 equations is then checked modulo the ideal, its
    left side expanded bilinearly through :data:`T_ENTRIES`; a failure
    raises :class:`InconsistentBivector`.

    Returns {(i, j): Polynomial} for coordinate indices i < j; the entries are
    the w-stripped brackets (every bracket carries one overall power of w).
    """
    t = group_matrix()
    zero = RING12.zero()
    tt = kron(t, t)
    r2 = {key: RING12.constant(c * 2) for key, c in _wedge16().items()}
    rhs = mat_add(mat_mul(tt, r2), mat_mul(r2, tt), -1)

    def entry_bracket(i, j, k, l):
        return rhs.get((4 * i + k, 4 * j + l, 0), zero)

    n = len(COORD_NAMES)
    table = {}
    for x in range(n):
        for y in range(x + 1, n):
            acc = zero
            for (i, j), a in T_COORDS[x].items():
                for (k, l), b in T_COORDS[y].items():
                    acc = acc + entry_bracket(i, j, k, l) * (a * b)
            table[(x, y)] = acc
    for i, j, k, l in product(range(4), repeat=4):
        lhs = zero
        for x, a in T_ENTRIES.get((i, j), {}).items():
            for y, b in T_ENTRIES.get((k, l), {}).items():
                if x != y:
                    lhs = lhs + _coord_bracket(table, x, y) * (a * b)
        res = ideal_reduce(lhs - entry_bracket(i, j, k, l))
        if not res.is_zero():
            raise InconsistentBivector(f"{{T{i}{j}, T{k}{l}}}: {res!r}")
    return table


def expected_poisson_table():
    """The published bracket table, transcribed (w-stripped, as-printed indices)."""
    r = RING12
    exp = {}

    def setb(x, y, value):
        i, j = coord_index(x), coord_index(y)
        if i < j:
            exp[(i, j)] = value
        else:
            exp[(j, i)] = -value

    setb("a_plus", "a_1", r.var("a_1") * FieldElem(-2))
    setb("a_plus", "a_minus", r.var("a_minus") * FieldElem(-2))
    setb("a_1", "a_minus", r.zero())
    for m in range(3):
        for n in range(3):
            for m2 in range(3):
                for n2 in range(3):
                    if (m, n) < (m2, n2):
                        setb(f"L{m}{n}", f"L{m2}{n2}", r.zero())
    for mu in range(3):
        for nu in range(3):
            l = f"L{mu}{nu}"
            row_sum = lvar(mu, 0) + lvar(mu, 2)
            col_sum = lvar(0, nu) + lvar(2, nu)
            col_dif = lvar(0, nu) - lvar(2, nu)
            v_ap = r.constant(FieldElem(-(mu - 1) * (nu - 1))) \
                + row_sum * col_sum
            if mu == 0:
                v_ap = v_ap - lvar(2, nu) * FieldElem(2)
            if mu == 2:
                v_ap = v_ap - lvar(0, nu) * FieldElem(2)
            setb(l, "a_plus", v_ap)
            v_a1 = lvar(1, nu) * (row_sum - 1)
            if mu == 1:
                v_a1 = v_a1 + r.constant(FieldElem(1 - nu)) \
                    - lvar(0, nu) + lvar(1, nu) + lvar(2, nu)
            setb(l, "a_1", v_a1)
            v_am = r.constant(FieldElem(rat((mu - 1) ** 2 * (nu - 1), 2))) \
                + row_sum * col_dif * HALF
            setb(l, "a_minus", v_am)
    return exp


def check_poisson_table(order=1):
    """Derived bivector brackets equal the published table modulo the ideal."""
    rep = CheckReport(check="poisson-table", algebra="poincare-group", order=order,
                      details={"index_reading": "as printed (L[mu][nu] = row mu, col nu)"})
    got = sklyanin_table()
    want = expected_poisson_table()
    names = COORD_NAMES
    for key in sorted(want):
        rep.expect_zero(f"{{{names[key[0]]},{names[key[1]]}}}",
                        ideal_reduce(got[key] - want[key]))
    return rep


def _coord_bracket(table, i, j):
    """{x_i, x_j} of two coordinates (i != j), read off the bracket table."""
    return table[(i, j)] if i < j else -table[(j, i)]


def _partials(p):
    """The nonzero first partial derivatives of ``p``, as pairs (a, dp/dx_a)."""
    return [(a, d) for a, d in enumerate(p.derivative(v) for v in COORD_NAMES) if d.terms]


def _leibniz(table, dp, dq):
    """Sum over a != b of (dp/dx_a)(dq/dx_b){x_a, x_b}, given the partials ``dp``
    of p and ``dq`` of q; a coordinate x_i has the one partial ``((i, FE_ONE),)``."""
    out = RING12.zero()
    for a, da in dp:
        for b, db in dq:
            if a != b:
                out = out + db * da * _coord_bracket(table, a, b)
    return out


def poisson_bracket(p, q, table=None):
    """Extend the coordinate brackets to polynomials by the Leibniz rule."""
    table = table if table is not None else sklyanin_table()
    return _leibniz(table, _partials(p), _partials(q))


def check_poisson_jacobi(order=1):
    """Cyclic Jacobi sums vanish modulo the ideal on all coordinate triples.

    Each inner bracket is a table entry q; each outer one is {x_i, q} = sum
    over y of dq/dx_y {x_i, x_y}, from the partials of every entry, taken once
    per call from the table this call reads."""
    rep = CheckReport(check="poisson-jacobi", algebra="poincare-group", order=order)
    table = sklyanin_table()
    partials = {key: _partials(q) for key, q in table.items()}
    n = len(COORD_NAMES)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                s = (_leibniz(table, ((i, FE_ONE),), partials[(j, k)])
                     - _leibniz(table, ((j, FE_ONE),), partials[(i, k)])
                     + _leibniz(table, ((k, FE_ONE),), partials[(i, j)]))
                rep.expect_zero(f"({COORD_NAMES[i]},{COORD_NAMES[j]},{COORD_NAMES[k]})",
                                ideal_reduce(s))
    return rep


def bracket_table_json():
    """BracketTable export: {pair: rendered bracket (the w coefficient)}."""
    got = sklyanin_table()
    names = COORD_NAMES
    return {f"{{{names[i]},{names[j]}}}": repr(got[(i, j)])
            for (i, j) in sorted(got)}


# -- the quantum coordinate algebra ----------------------------------------------

def _poly_to_element(alg, p, w_degree=0):
    """Commutative L/a polynomial -> normal-ordered element, times w^w_degree."""
    unpack = p.ring.unpack
    return alg.element({(tuple((i, k) for i, k in enumerate(unpack(m)) if k), w_degree): c
                        for m, c in p.terms.items()})


@lru_cache(maxsize=None)
def quantum_presentation(order, fault=None):
    """The quantum Poincare group coordinate algebra as a rewriting system."""
    alg = AlgebraPresentation("qpoincare", COORD_NAMES, "w", order)
    # [x_i, x_j] = w * table[(i,j)]  (Weyl form: same right-hand sides)
    comm = {key: _poly_to_element(alg, p, 1) for key, p in expected_poisson_table().items()}
    if fault == "repfrt-rule":
        key = (coord_index("a_plus"), coord_index("a_1"))
        comm[key] = -comm[key]
    alg.set_commutators(comm)
    return alg


def _reduce_blocks(terms, arity):
    """Reduce the L-part of every tensor slot modulo the orthogonality ideal.

    ``terms`` maps (a tuple of words, one per slot; a w-power) to a scalar.
    Slot by slot, the terms that agree in everything but that slot's L-part
    form one polynomial over ``RING12``, reduced by the Groebner basis and
    turned back into words.  The slots' bases, in disjoint variables, form
    one Groebner basis of the sum of their ideals, so the result is the
    unique normal form whatever the slot order.
    """
    n_l = len(L_NAMES)
    basis = orthogonality_leads()
    for s in range(arity):
        blocks = {}
        for (words, k), c in terms.items():
            e = [0] * len(COORD_NAMES)
            for g, ex in words[s]:
                if g < n_l:
                    e[g] = ex
            rest = words[:s] + (tuple((g, ex) for g, ex in words[s] if g >= n_l),) + words[s + 1:]
            blocks.setdefault((rest, k), {})[RING12.pack(e)] = c
        terms = {}
        for (rest, k), block in blocks.items():
            for m, c in reduce_poly(Polynomial(RING12, block), basis).terms.items():
                lpart = tuple((g, ex) for g, ex in enumerate(RING12.unpack(m)) if ex)
                add_term(terms, (rest[:s] + (lpart + rest[s],) + rest[s + 1:], k), c)
    return terms


def _ideal_reduce_slots(x):
    """An element or tensor with each slot's L-part reduced modulo the ideal."""
    if isinstance(x, TensorElement):
        return TensorElement(x.algebra, x.arity, _reduce_blocks(x.terms, x.arity))
    out = _reduce_blocks({((w,), k): c for (w, k), c in x.terms.items()}, 1)
    return NCElement(x.algebra, {(w, k): c for ((w,), k), c in out.items()})


def quantum_t(alg):
    """The group element over the quantum algebra: each :func:`group_matrix`
    entry as a normal-ordered element, in the same sparse graded layout."""
    return {key: _poly_to_element(alg, p) for key, p in group_matrix().items()}


def check_rtt(order=2, fault=None):
    """All 256 entries of R T1 T2 - T2 T1 R vanish modulo the ideal."""
    alg = quantum_presentation(order, fault)
    rep = CheckReport(check="rtt", algebra="qpoincare", order=order)
    r = matrix_r(order)
    t = quantum_t(alg)
    # T1 T2 = T (x) T, and T2 T1 is it with the two sites swapped
    t1t2 = kron(t, t)
    t2t1 = swap(t1t2)
    res = {}
    for (i, j, k), x in mat_add(mat_mul(r, t1t2, order), mat_mul(t2t1, r, order), -1).items():
        add_term(res, (i, j), x.scaled(FE_ONE, k))
    for row, colm in product(range(16), repeat=2):
        rep.expect_zero(f"entry ({row},{colm})",
                        _ideal_reduce_slots(res.get((row, colm), alg.zero())))
    return rep


def check_weyl_correspondence(order=2, fault=None):
    """Quantum commutators equal w times the Poisson brackets, table-wide."""
    alg = quantum_presentation(order, fault)
    rep = CheckReport(check="weyl", algebra="qpoincare", order=order)
    table = sklyanin_table()
    n = len(COORD_NAMES)
    for i in range(n):
        for j in range(i + 1, n):
            qc = alg.gen(j).commutator(alg.gen(i))     # [x_j, x_i]
            want = _poly_to_element(alg, -table[(i, j)], 1)
            rep.expect_zero(f"[{COORD_NAMES[j]},{COORD_NAMES[i]}]",
                            _ideal_reduce_slots(qc - want))
    return rep


# -- group coproduct --------------------------------------------------------------

def group_coproduct(alg):
    """Delta on coordinate generators, read off Delta(T) = T (x,) T through
    :data:`T_COORDS`."""
    t = quantum_t(alg)

    def dmat(i, j):
        out = TensorElement.zero(alg, 2)
        for k in range(4):
            if (i, k, 0) in t and (k, j, 0) in t:
                out = out + tensor_pair(t[(i, k, 0)], t[(k, j, 0)])
        return out

    delta = {}
    for x, entries in T_COORDS.items():
        delta[x] = TensorElement.zero(alg, 2)
        for (i, j), c in entries.items():
            delta[x] = delta[x] + dmat(i, j) * c
    return delta


def expected_group_coproduct(alg):
    """The published coproduct display, transcribed for comparison."""
    idx = alg.index

    def g(name):
        return alg.gen(idx[name])

    def lv(m, n):
        return g(f"L{m}{n}")

    one = alg.unit()
    quarter = FieldElem(rat(1, 4))
    delta = {}
    for m in range(3):
        for n in range(3):
            out = TensorElement.zero(alg, 2)
            for s in range(3):
                out = out + tensor_pair(lv(m, s), lv(s, n))
            delta[idx[f"L{m}{n}"]] = out
    delta[idx["a_plus"]] = (
        tensor_pair(g("a_plus"), one)
        + tensor_pair((lv(0, 0) + lv(2, 0) + lv(0, 2) + lv(2, 2)) * HALF, g("a_plus"))
        + tensor_pair(lv(0, 1) + lv(2, 1), g("a_1"))
        + tensor_pair(lv(0, 0) + lv(2, 0) - lv(0, 2) - lv(2, 2), g("a_minus")))
    delta[idx["a_1"]] = (
        tensor_pair(g("a_1"), one)
        + tensor_pair((lv(1, 0) + lv(1, 2)) * HALF, g("a_plus"))
        + tensor_pair(lv(1, 1), g("a_1"))
        + tensor_pair(lv(1, 0) - lv(1, 2), g("a_minus")))
    delta[idx["a_minus"]] = (
        tensor_pair(g("a_minus"), one)
        + tensor_pair((lv(0, 0) - lv(2, 0) + lv(0, 2) - lv(2, 2)) * quarter, g("a_plus"))
        + tensor_pair((lv(0, 1) - lv(2, 1)) * HALF, g("a_1"))
        + tensor_pair((lv(0, 0) - lv(2, 0) - lv(0, 2) + lv(2, 2)) * HALF, g("a_minus")))
    return delta


def check_group_coproduct(order=2, fault=None):
    """Display match, coassociativity, counit, and relation compatibility."""
    alg = quantum_presentation(order, fault)
    rep = CheckReport(check="group-coproduct", algebra="qpoincare", order=order)
    delta = group_coproduct(alg)
    want = expected_group_coproduct(alg)
    for i, d in delta.items():
        rep.expect_zero(f"Delta({COORD_NAMES[i]}) display", d - want[i])

    # coassociativity and counit epsilon(T) = I, read through T_COORDS; a
    # bialgebra here, as the antipode holds only modulo the orthogonality ideal
    counit = {x: sum((c for (i, j), c in entries.items() if i == j), FE_ZERO)
              for x, entries in T_COORDS.items()}
    hopf = HopfMaps(alg, delta, counit)
    gens = [((i, 1),) for i in range(len(COORD_NAMES))]
    for sub in (hopf.check_coassociativity(gens), hopf.check_counit(gens)):
        for f in sub.failures:
            rep.add_failure(f"{sub.check}({f['input']})", f["residual"])

    # Delta respects the commutation rules and the constraint ideal
    for (j, i), comm, image in rule_images(hopf.delta_map):
        rep.expect_zero(f"Delta respects [{COORD_NAMES[j]},{COORD_NAMES[i]}]",
                        _ideal_reduce_slots(comm - image))
    for q in orthogonality_quadrics():
        img = hopf.coproduct(_poly_to_element(alg, q, 0))
        # Delta(quadric) must reduce to the quadric's counit image: zero
        rep.expect_zero("Delta respects the orthogonality ideal", _ideal_reduce_slots(img))
    return rep


# -- quantum plane ------------------------------------------------------------------

@lru_cache(maxsize=None)
def quantum_plane(order=2):
    """Coordinate relations of the quantum (2+1) Poincare plane."""
    alg = AlgebraPresentation("qplane", ("x_plus", "x_1", "x_minus"), "w", order)
    one = FE_ONE
    two = FieldElem(2)
    rules = {
        (1, 0): alg.element({(((0, 1), (1, 1)), 0): one, (((1, 1),), 1): two}),
        (2, 0): alg.element({(((0, 1), (2, 1)), 0): one, (((2, 1),), 1): two}),
        (2, 1): alg.element({(((1, 1), (2, 1)), 0): one}),
    }
    alg.set_rules(rules)
    return alg


def check_quantum_plane(order=2):
    """The plane's rules hold for the translations of the quantum group: the
    map x -> a into it respects them (:func:`~hopf_forge.ncalg.rule_images`),
    so an L term in a translation bracket is a nonzero residual."""
    alg = quantum_plane(order)
    rep = CheckReport(check="qplane", algebra="qplane", order=order)
    qp = quantum_presentation(order, None)
    names = alg.generators
    to_a = WordMap(alg, dict(zip(names, map(qp.gen, A_NAMES))), qp.unit())
    for (j, i), comm, image in rule_images(to_a):
        rep.expect_zero(f"[{names[j]},{names[i]}]", comm - image)
    if not (alg.consistency_check()).passed:
        rep.add_failure("consistency", "quantum plane rewriting inconsistent")
    # w = 0: the plane is commutative
    for r in ((1, 0), (2, 0), (2, 1)):
        cls = alg.rules[r].classical_limit()
        i, j = r[1], r[0]
        if cls != alg.element({(((i, 1), (j, 1)), 0): FE_ONE}).classical_limit():
            rep.add_failure("classical limit", f"rule {r} not commutative at w=0")
    return rep
