"""Finite-dimensional sector of the null-plane deformation.

Contains the exact 4x4 matrix representation and the 16x16 matrix R (checked
against the matrix Yang-Baxter equation exactly, not just order by order),
the Sklyanin Poisson structure on the Poincare group read off from the
bivector identity, the FRT quantization with its noncommutative coordinate
algebra and RTT residuals, the Weyl-correspondence check, the quantum group
coproduct, and the quantum plane quotient.

Every matrix here (the representation, the symbolic group element, the 16x16
R, its 64x64 embeddings, T (x) 1 and 1 (x) T) is one :class:`Matrix`: graded
terms ``{((row, col), k): entry}`` with the kernel's one arithmetic
(:class:`~hopf_forge.ncalg.Graded`).  Every matrix identity is one residual
matrix, recorded by :meth:`~hopf_forge.report.CheckReport.expect_zero`.

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
from .ncalg import (AlgebraPresentation, Graded, NCElement, TensorElement, WordMap,
                    add_term, rule_images, tensor_pair)
from .ratfunc import PolyRing, Polynomial, groebner, leads, reduce_poly
from .hopf import HopfMaps
from .report import CheckReport
from .algebras import preset

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


class Matrix(Graded):
    """A dim x dim matrix over w: ``{((row, col), k): entry}``, the nonzero
    coefficient of w**k at (row, col), k up to the order.  An entry is a scalar,
    a polynomial, an element or a tensor; matrices of two sizes do not combine."""

    __slots__ = ("dim", "order", "terms")

    def __init__(self, dim, order, terms):
        self.dim = dim
        self.order = order
        self.terms = terms

    def _new(self, terms):
        return Matrix(self.dim, self.order, terms)

    def _mismatch(self, other):
        if self.dim != other.dim:
            return ValueError(f"matrices of sizes {self.dim} and {other.dim} combined")
        return None

    def _mul_into(self, other, out, top=None):
        """Sum ``self * other`` up to ``w**top`` into the graded terms ``out``;
        a pair above ``top`` is skipped before its entries are multiplied."""
        top = self.order if top is None else top
        rows = {}
        for ((m, j), k), y in other.terms.items():
            rows.setdefault(m, []).append((j, k, y))
        for ((i, m), k1), x in self.terms.items():
            for j, k2, y in rows.get(m, ()):
                if k1 + k2 <= top:
                    add_term(out, ((i, j), k1 + k2), x * y)
        return out

    def __repr__(self):  # keys are unique, so the sort never compares two entries
        return "; ".join(f"({i},{j}){f' w^{k}' if k else ''}: {c}"
                         for ((i, j), k), c in sorted(self.terms.items())) or "0"


def matrix_rep():
    """Generator -> constant 4x4 matrix over FieldElem."""
    return {name: Matrix(4, 0, {(ij, 0): c for ij, c in entries.items()})
            for name, entries in _REP_ENTRIES.items()}


def kron(a, b):
    """Kronecker product of graded matrices (row-major, powers add)."""
    d, order = b.dim, max(a.order, b.order)
    return Matrix(a.dim * d, order, {
        ((d * i + k, d * j + l), ka + kb): x * y
        for ((i, j), ka), x in a.terms.items() for ((k, l), kb), y in b.terms.items()
        if ka + kb <= order})


def identity(n, order=0):
    return Matrix(n, order, {((i, i), 0): FE_ONE for i in range(n)})


def swap(m):
    """``m`` with the last two sites of every index exchanged, each site
    ranging over 4 values: 16h + 4a + b becomes 16h + 4b + a."""
    def site_swap(i):
        h, a, b = i // 16, i // 4 % 4, i % 4
        return 16 * h + 4 * b + a
    return m._new({((site_swap(i), site_swap(j)), k): e for ((i, j), k), e in m.terms.items()})


def check_matrix_rep(order=0):
    """rho respects every rule of the fault-free nullplane preset, each power of
    w (:func:`~hopf_forge.ncalg.rule_images`; at order 0 the classical
    brackets), and D(P_+) is nilpotent."""
    alg = preset("nullplane", order).presentation
    rep = matrix_rep()
    out = CheckReport(check="matrixrep", algebra="nullplane", order=order)
    names = alg.generators
    for (j, i), comm, image in rule_images(WordMap(alg, rep, identity(4, order))):
        out.expect_zero(f"[D({names[j]}),D({names[i]})]", comm - image)
    out.expect_zero("D(P_plus)^2", rep["P_plus"] * rep["P_plus"])
    return out


# -- matrix R and the matrix Yang-Baxter equation --------------------------------

# the classical r of the FRT sector, 2(K_2 ^ P_+ + E_1 ^ P_1), as {(X, Y): c}
CLASSICAL_R = {("K_2", "P_plus"): 2, ("E_1", "P_1"): 2}


def _rho_wedge(wedges):
    """``t - swap(t)`` for ``t = sum c * D(X) (x) D(Y)`` over the ``{(X, Y): c}``
    of ``wedges`` (generator names), as rmat's ``_wedge_tensor`` is for tensors."""
    rep = matrix_rep()
    t = sum((kron(rep[x], rep[y]) * c for (x, y), c in wedges.items()), Matrix(16, 0, {}))
    return t - swap(t)


def matrix_r(order=3):
    """16x16 R = I (x) I + w * rho(r) for r = :data:`CLASSICAL_R`, of truncation
    order ``order``; the w term is dropped at order 0."""
    r = identity(16, order)
    return r + r._new(_rho_wedge(CLASSICAL_R).terms).scaled(FE_ONE, 1)


def site_pairs(r):
    """R12, R13 and R23: the 16x16 two-site matrix ``r`` on the sites (0, 1),
    (0, 2) and (1, 2) of three."""
    r12 = kron(r, identity(4))
    return r12, swap(r12), kron(identity(4), r)


def check_matrix_r(bundle):
    """Matrix QYBE and triangularity hold exactly (R is linear in w); its w^0
    part is the identity and its w^1 part rho of the preset's classical r."""
    from . import rmat  # here, so no other FRT check loads rmat
    order = bundle.order
    out = CheckReport(check="matrix-r", algebra=bundle.name, order=order)
    r = matrix_r(order)
    out.expect_zero("matrix QYBE", rmat.qybe_residual(*site_pairs(r)))
    one = identity(16)
    out.expect_zero("matrix triangularity", rmat.triangularity_residual(swap(r), r, one))
    names = bundle.presentation.generators
    rho_r = _rho_wedge({(names[i], names[j]): c
                        for (i, j), c in rmat.classical_r_of_preset(bundle).items()})
    for k, label, want in ((0, "w=0 specialization", one), (1, "first-order block", rho_r)):
        part = Matrix(16, 0, {(ij, 0): e for (ij, p), e in r.terms.items() if p == k})
        out.expect_zero(label, part - want)
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
    t = {((0, 0), 0): RING12.one()}
    for ij, coords in T_ENTRIES.items():
        p = RING12.zero()
        for x, c in coords.items():
            p = p + RING12.var(COORD_NAMES[x]) * c
        t[(ij, 0)] = p
    return Matrix(4, 0, t)


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
    rhs = kron(t, t).commutator(_rho_wedge(CLASSICAL_R)).terms

    def entry_bracket(i, j, k, l):
        return rhs.get(((4 * i + k, 4 * j + l), 0), zero)

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
    """The group element over the quantum algebra, of the algebra's order: each
    :func:`group_matrix` entry as a normal-ordered element."""
    return Matrix(4, alg.order, {key: _poly_to_element(alg, p)
                                 for key, p in group_matrix().terms.items()})


def check_rtt(order=2, fault=None):
    """All 256 entries of R T1 T2 - T2 T1 R vanish modulo the ideal."""
    alg = quantum_presentation(order, fault)
    rep = CheckReport(check="rtt", algebra="qpoincare", order=order)
    r = matrix_r(order)
    t = quantum_t(alg)
    # T1 T2 = T (x) T, and T2 T1 is it with the two sites swapped; the w of
    # a matrix entry is the algebra's w
    t1t2 = kron(t, t)
    res = {}
    for (ij, k), x in (r * t1t2 - swap(t1t2) * r).terms.items():
        add_term(res, ij, x.scaled(FE_ONE, k))
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
    """Delta on coordinate generators, read off Delta(T) = T (x,) T, the
    product of T (x) 1 and 1 (x) T, through :data:`T_COORDS`."""
    t, one = quantum_t(alg), alg.unit()
    dt = (t._new({key: tensor_pair(x, one) for key, x in t.terms.items()})
          * t._new({key: tensor_pair(one, x) for key, x in t.terms.items()})).terms
    zero = TensorElement.zero(alg, 2)
    return {x: sum((dt.get((ij, 0), zero) * c for ij, c in entries.items()), zero)
            for x, entries in T_COORDS.items()}


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
    for j, i in ((1, 0), (2, 0), (2, 1)):
        rep.expect_zero("classical limit",
                        (alg.rules[(j, i)] - alg.gen(i) * alg.gen(j)).classical_limit())
    return rep
