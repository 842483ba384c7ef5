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

from .coeff import FE_ONE, FE_ZERO, FieldElem, rat
from .ncalg import AlgebraPresentation, NCElement, TensorElement, add_term, tensor_pair
from .ratfunc import PolyRing, Polynomial, groebner, reduce_poly
from .hopf import HopfMaps
from .report import CheckReport
from .algebras import NP_GENERATORS, classical_bracket, preset
from .rmat import classical_r_of_preset

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


def kron(a, b):
    """Kronecker product of two graded 4x4 matrices (row-major, powers add)."""
    return {(4 * i + k, 4 * j + l, ka + kb): x * y
            for (i, j, ka), x in a.items() for (k, l, kb), y in b.items()}


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


def _identity16():
    return {(i, i, 0): FE_ONE for i in range(16)}


def matrix_r(order=3):
    """16x16 R = I (x) I + 2w * wedge as a sparse graded matrix; the w term
    is dropped at order 0."""
    r = _identity16()
    if order >= 1:
        r.update({(i, j, 1): c * 2 for (i, j, _), c in _wedge16().items()})
    return r


def _embed64(r, slots):
    """Place a 16x16 two-site matrix on the given pair of three sites."""
    other = ({0, 1, 2} - set(slots)).pop()

    def site_index(pair, t):
        digits = [t, t, t]
        digits[slots[0]], digits[slots[1]] = divmod(pair, 4)
        return 16 * digits[0] + 4 * digits[1] + digits[2]

    return {(site_index(i, t), site_index(j, t), k): e
            for (i, j, k), e in r.items() for t in range(4)}


def check_matrix_r(order=3):
    """Matrix QYBE and triangularity hold exactly (R is linear in w)."""
    out = CheckReport(check="matrix-r", algebra="nullplane", order=order)
    r = matrix_r(order)
    r12 = _embed64(r, (0, 1))
    r13 = _embed64(r, (0, 2))
    r23 = _embed64(r, (1, 2))
    if (mat_mul(mat_mul(r12, r13, order), r23, order)
            != mat_mul(mat_mul(r23, r13, order), r12, order)):
        out.add_failure("matrix QYBE", "nonzero residual")
    # R21 R = identity
    flip = [4 * (i % 4) + i // 4 for i in range(16)]
    r21 = {(flip[i], flip[j], k): e for (i, j, k), e in r.items()}
    if mat_mul(r21, r, order) != _identity16():
        out.add_failure("matrix triangularity", "R21 R != I")
    # w = 0 gives the identity
    for i in range(16):
        for j in range(16):
            if r.get((i, j, 0), FE_ZERO) != (FE_ONE if i == j else FE_ZERO):
                out.add_failure("w=0 specialization", f"entry {(i, j)}")
    # the first-order block is the representation of the classical r
    np_alg = preset("nullplane", max(order, 1)).presentation
    rep = matrix_rep()
    acc = {}
    for (i, j), c in classical_r_of_preset("nullplane", max(order, 1)).items():
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


def orthogonality_quadrics():
    """The six L eta L^T = eta quadrics (mu <= rho)."""
    out = []
    for mu in range(3):
        for rho in range(mu, 3):
            q = RING12.constant(FieldElem(-ETA[mu] if mu == rho else 0))
            for nu in range(3):
                q = q + lvar(mu, nu) * lvar(rho, nu) * FieldElem(ETA[nu])
            out.append(q)
    return out


@lru_cache(maxsize=None)
def orthogonality_groebner():
    return tuple(groebner(orthogonality_quadrics()))


def ideal_reduce(p):
    return reduce_poly(p, list(orthogonality_groebner()))


# -- the symbolic group element --------------------------------------------------

def group_matrix():
    """D(g) with symbolic entries: translations in column 0, Lorentz block."""
    ap = RING12.var("a_plus")
    am = RING12.var("a_minus")
    t = {(0, 0, 0): RING12.one(), (1, 0, 0): ap * HALF + am, (2, 0, 0): RING12.var("a_1"),
         (3, 0, 0): ap * HALF - am}
    t.update({(m + 1, n + 1, 0): lvar(m, n) for m in range(3) for n in range(3)})
    return t


class InconsistentBivector(Exception):
    """The bivector identity assigns two inequivalent brackets to one pair."""


def _affine_parts(p):
    """(constant, {var_index: coeff}) of an affine polynomial."""
    const = FE_ZERO
    lin = {}
    for m, c in p.terms.items():
        e = p.ring.unpack(m)
        d = sum(e)
        if d == 0:
            const = c
        elif d == 1:
            lin[e.index(1)] = c
        else:
            raise InconsistentBivector("group-element entry is not affine")
    return const, lin


@lru_cache(maxsize=None)
def sklyanin_table():
    """Solve {T (x,) T} = [T (x) T, r] for the coordinate brackets.

    Returns {(i, j): Polynomial} for coordinate indices i < j; the entries are
    the w-stripped brackets (every bracket carries one overall power of w).
    """
    t = group_matrix()
    zero = RING12.zero()
    tt = kron(t, t)
    r2 = {key: RING12.constant(c * 2) for key, c in _wedge16().items()}
    rhs = mat_add(mat_mul(tt, r2), mat_mul(r2, tt), -1)

    nvar = len(COORD_NAMES)
    unknowns = [(i, j) for i in range(nvar) for j in range(i + 1, nvar)]
    col = {p: k for k, p in enumerate(unknowns)}
    rows = []
    for i in range(4):
        for k in range(4):
            for j in range(4):
                for l in range(4):
                    c1, l1 = _affine_parts(t.get((i, j, 0), zero))
                    c2, l2 = _affine_parts(t.get((k, l, 0), zero))
                    coeffs = {}
                    for x, ax in l1.items():
                        for y, by in l2.items():
                            if x == y:
                                continue
                            key, sign = ((x, y), 1) if x < y else ((y, x), -1)
                            v = ax * by * FieldElem(sign)
                            cur = coeffs.get(key)
                            s = v if cur is None else cur + v
                            if s.is_zero():
                                coeffs.pop(key, None)
                            else:
                                coeffs[key] = s
                    rows.append((coeffs, rhs.get((4 * i + k, 4 * j + l, 0), zero)))

    # Gaussian elimination over the pair-unknowns, polynomial right-hand sides
    solved = {}
    pivots = []
    for coeffs, rhs_p in rows:
        coeffs = dict(coeffs)
        for key, val, srhs in pivots:
            c = coeffs.pop(key, None)
            if c is not None:
                for k2, v2 in val.items():
                    cur = coeffs.get(k2, FE_ZERO) - c * v2
                    if cur.is_zero():
                        coeffs.pop(k2, None)
                    else:
                        coeffs[k2] = cur
                rhs_p = rhs_p - srhs * c
        if not coeffs:
            if not ideal_reduce(rhs_p).is_zero():
                raise InconsistentBivector(f"0 = {rhs_p!r}")
            continue
        key = min(coeffs, key=col.get)
        inv = coeffs.pop(key).inverse()
        val = {k2: v2 * inv for k2, v2 in coeffs.items()}
        srhs = rhs_p * inv
        pivots.append((key, val, srhs))

    # back-substitute
    pending = list(reversed(pivots))
    for key, val, srhs in pending:
        acc = srhs
        for k2, v2 in val.items():
            acc = acc - solved[k2] * v2
        solved[key] = acc
    missing = [p for p in unknowns if p not in solved]
    if missing:
        raise InconsistentBivector(f"bivector leaves {missing} undetermined")
    return {p: solved[p] for p in unknowns}


def coord_index(name):
    return RING12.index[name]


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


def poisson_bracket(p, q, table=None):
    """Extend the coordinate brackets to polynomials by the Leibniz rule."""
    table = table if table is not None else sklyanin_table()
    out = RING12.zero()
    for x in range(len(COORD_NAMES)):
        dp = p.derivative(COORD_NAMES[x])
        if dp.is_zero():
            continue
        for y in range(len(COORD_NAMES)):
            if x == y:
                continue
            dq = q.derivative(COORD_NAMES[y])
            if dq.is_zero():
                continue
            out = out + dp * dq * _coord_bracket(table, x, y)
    return out


def check_poisson_jacobi(order=1):
    """Cyclic Jacobi sums vanish modulo the ideal on all coordinate triples.

    The inner bracket of two coordinates is a table entry; the outer one
    goes through the Leibniz rule."""
    rep = CheckReport(check="poisson-jacobi", algebra="poincare-group", order=order)
    table = sklyanin_table()
    n = len(COORD_NAMES)
    vars_ = [RING12.var(v) for v in COORD_NAMES]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                x, y, z = vars_[i], vars_[j], vars_[k]
                s = (poisson_bracket(x, _coord_bracket(table, j, k), table)
                     + poisson_bracket(y, _coord_bracket(table, k, i), table)
                     + poisson_bracket(z, _coord_bracket(table, i, j), table))
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


def _reduce_blocks(terms, ring, width, basis):
    """Reduce the L-polynomials of each a-monomial block modulo an ideal.

    ``terms`` maps (a tuple of words, one per tensor slot; a w-power) to a
    scalar.  Each word splits into its L-part and its a-part; the a-parts
    pick the block.  Per w-power, a block's L-parts form one polynomial over
    ``ring`` (slot s at variables s*width onward), reduced by the Groebner
    ``basis`` and turned back into words.
    """
    n_l = len(L_NAMES)
    blocks = {}
    for (words, k), c in terms.items():
        e = [0] * len(ring.vars)
        for s, w in enumerate(words):
            for g, ex in w:
                if g < n_l:
                    e[s * width + g] = ex
        apart = tuple(tuple((g, ex) for g, ex in w if g >= n_l) for w in words)
        blocks.setdefault(apart, {}).setdefault(k, {})[ring.pack(e)] = c
    out = {}
    for apart, by_power in blocks.items():
        for k in sorted(by_power):
            red = reduce_poly(Polynomial(ring, by_power[k]), basis)
            for m, c in red.terms.items():
                e = ring.unpack(m)
                key = tuple(tuple((i, ex) for i, ex in enumerate(e[s * width:(s + 1) * width])
                                  if ex) + a for s, a in enumerate(apart))
                add_term(out, (key, k), c)
    return out


def _element_ideal_reduce(x):
    """Reduce the L-polynomial part of each a-monomial block modulo the ideal."""
    out = _reduce_blocks({((w,), k): c for (w, k), c in x.terms.items()},
                         RING12, len(COORD_NAMES), orthogonality_groebner())
    return NCElement(x.algebra, {(w, k): c for ((w,), k), c in out.items()})


def quantum_t(alg):
    """The group element with noncommutative entries, as NCElements."""
    idx = alg.index
    one = alg.unit()

    def g(name):
        return alg.gen(idx[name])

    ap, a1, am = g("a_plus"), g("a_1"), g("a_minus")
    rows = [[one, alg.zero(), alg.zero(), alg.zero()],
            [ap * HALF + am, g("L00"), g("L01"), g("L02")],
            [a1, g("L10"), g("L11"), g("L12")],
            [ap * HALF - am, g("L20"), g("L21"), g("L22")]]
    return tuple(tuple(r) for r in rows)


def check_rtt(order=2, fault=None):
    """All 256 entries of R T1 T2 - T2 T1 R vanish modulo the ideal."""
    alg = quantum_presentation(order, fault)
    rep = CheckReport(check="rtt", algebra="qpoincare", order=order)
    t = quantum_t(alg)
    r_rows, r_cols = {}, {}
    for (i, j, k), c in matrix_r(order).items():
        r_rows.setdefault(i, []).append((j, k, c))
        r_cols.setdefault(j, []).append((i, k, c))

    t1t2 = {}
    t2t1 = {}
    for i in range(4):
        for k in range(4):
            for j in range(4):
                for l in range(4):
                    x, y = t[i][j], t[k][l]
                    if x.is_zero() or y.is_zero():
                        continue
                    t1t2[(4 * i + k, 4 * j + l)] = x * y
                    t2t1[(4 * i + k, 4 * j + l)] = y * x

    for row in range(16):
        for colm in range(16):
            acc = alg.zero()
            for mid, k, c in r_rows.get(row, ()):
                m = t1t2.get((mid, colm))
                if m is not None:
                    acc = acc + m.scaled(c, k)
            for mid, k, c in r_cols.get(colm, ()):
                m = t2t1.get((row, mid))
                if m is not None:
                    acc = acc - m.scaled(c, k)
            rep.expect_zero(f"entry ({row},{colm})", _element_ideal_reduce(acc))
    return rep


def check_weyl_correspondence(order=2):
    """Quantum commutators equal w times the Poisson brackets, table-wide."""
    alg = quantum_presentation(order)
    rep = CheckReport(check="weyl", algebra="qpoincare", order=order)
    table = sklyanin_table()
    n = len(COORD_NAMES)
    for i in range(n):
        for j in range(i + 1, n):
            qc = alg.gen(j).commutator(alg.gen(i))     # [x_j, x_i]
            want = _poly_to_element(alg, -table[(i, j)], 1)
            rep.expect_zero(f"[{COORD_NAMES[j]},{COORD_NAMES[i]}]",
                            _element_ideal_reduce(qc - want))
    return rep


# -- group coproduct --------------------------------------------------------------

@lru_cache(maxsize=None)
def _doubled_ideal():
    """The orthogonality ideal on each slot of the 18-variable L (x) L ring."""
    n_l = len(L_NAMES)
    ring18 = PolyRing(tuple(f"s1_{v}" for v in L_NAMES)
                      + tuple(f"s2_{v}" for v in L_NAMES))
    gb = [_lift_poly(g, ring18, offset)
          for offset in (0, n_l) for g in orthogonality_groebner()]
    return ring18, gb


def _tensor18_reduce(t):
    """Reduce both tensor slots' L-polynomials modulo the (doubled) ideal."""
    ring18, gb = _doubled_ideal()
    return TensorElement(t.algebra, 2,
                         _reduce_blocks(t.terms, ring18, len(L_NAMES), gb))


def _lift_poly(p, ring, offset):
    """Lift an L-only polynomial into a doubled-variable ring at an offset."""
    n_l = len(L_NAMES)
    terms = {}
    for m, c in p.terms.items():
        e = p.ring.unpack(m)
        if any(e[n_l:]):
            raise ValueError("ideal generator involves translation coordinates")
        ee = [0] * len(ring.vars)
        for i, ex in enumerate(e[:n_l]):
            ee[offset + i] = ex
        terms[ring.pack(ee)] = c
    return Polynomial(ring, terms)


def group_coproduct(alg):
    """Delta on coordinate generators, read off Delta(T) = T (x,) T."""
    t = quantum_t(alg)

    def dmat(i, j):
        out = TensorElement.zero(alg, 2)
        for k in range(4):
            if t[i][k].is_zero() or t[k][j].is_zero():
                continue
            out = out + tensor_pair(t[i][k], t[k][j])
        return out

    delta = {}
    for m in range(3):
        for n in range(3):
            delta[alg.index[f"L{m}{n}"]] = dmat(m + 1, n + 1)
    d10, d30 = dmat(1, 0), dmat(3, 0)
    delta[alg.index["a_plus"]] = d10 + d30
    delta[alg.index["a_minus"]] = (d10 - d30) * HALF
    delta[alg.index["a_1"]] = dmat(2, 0)
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


def check_group_coproduct(order=2):
    """Display match, coassociativity, counit, and relation compatibility."""
    alg = quantum_presentation(order)
    rep = CheckReport(check="group-coproduct", algebra="qpoincare", order=order)
    delta = group_coproduct(alg)
    want = expected_group_coproduct(alg)
    for i, d in delta.items():
        rep.expect_zero(f"Delta({COORD_NAMES[i]}) display", d - want[i])

    # coassociativity and counit epsilon(T) = I on the generators; a bialgebra
    # here, as the antipode holds only modulo the orthogonality ideal
    n_l = len(L_NAMES)
    counit = {i: FE_ONE if i < n_l and i // 3 == i % 3 else FE_ZERO
              for i in range(len(COORD_NAMES))}
    hopf = HopfMaps(alg, delta, counit)
    gens = [((i, 1),) for i in range(len(COORD_NAMES))]
    for sub in (hopf.check_coassociativity(gens), hopf.check_counit(gens)):
        for f in sub.failures:
            rep.add_failure(f"{sub.check}({f['input']})", f["residual"])

    # Delta respects the commutation rules and the constraint ideal
    n = len(COORD_NAMES)
    for j in range(n):
        for i in range(j):
            lhs = delta[j] * delta[i] - delta[i] * delta[j]
            rhs = hopf.coproduct(alg.gen(j).commutator(alg.gen(i)))
            rep.expect_zero(f"Delta respects [{COORD_NAMES[j]},{COORD_NAMES[i]}]",
                            _tensor18_reduce(lhs - rhs))
    for q in orthogonality_quadrics():
        img = hopf.coproduct(_poly_to_element(alg, q, 0))
        # Delta(quadric) must reduce to the quadric's counit image: zero
        rep.expect_zero("Delta respects the orthogonality ideal", _tensor18_reduce(img))
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
    """The plane relations equal the translation sector of the quantum group."""
    alg = quantum_plane(order)
    rep = CheckReport(check="qplane", algebra="qplane", order=order)
    qp = quantum_presentation(order)
    pairs = {("x_plus", "x_1"): ("a_plus", "a_1"),
             ("x_plus", "x_minus"): ("a_plus", "a_minus"),
             ("x_1", "x_minus"): ("a_1", "a_minus")}
    rename = {a: alg.gen(x) for a, x in zip(A_NAMES, ("x_plus", "x_1", "x_minus"))}
    for (xi, xj), (ai, aj) in pairs.items():
        got = alg.gen(xi).commutator(alg.gen(xj))
        want = qp.gen(ai).commutator(qp.gen(aj))
        if any(g < len(L_NAMES) for w, _ in want.terms for g, _ in w):
            rep.add_failure(f"[{ai},{aj}]", "translation sector is not closed")
        elif want.substitute(alg, rename) != got:
            rep.add_failure(f"[{xi},{xj}]", repr(got))
    if not (alg.consistency_check()).passed:
        rep.add_failure("consistency", "quantum plane rewriting inconsistent")
    # w = 0: the plane is commutative
    for r in ((1, 0), (2, 0), (2, 1)):
        cls = alg.rules[r].classical_limit()
        i, j = r[1], r[0]
        if cls != alg.element({(((i, 1), (j, 1)), 0): FE_ONE}).classical_limit():
            rep.add_failure("classical limit", f"rule {r} not commutative at w=0")
    return rep
