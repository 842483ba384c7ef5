"""Universal R-matrices and the Yang-Baxter verification suite.

The R-matrices are ordered products of exponential factors exp{c * param *
X (x) Y}; everything is expanded to the working truncation order and every
identity (quantum Yang-Baxter, intertwining of the coproduct with its flip,
triangularity, the classical limit and its classical Yang-Baxter equation,
Lie-bialgebra cocommutators) is checked with exactly-zero residuals.

Intertwining and triangularity are verified multiplicatively (residuals of
the form sigma(Delta(X)) * R - R * Delta(X)) so no series inversion in the
tensor algebra is ever needed.
"""

from __future__ import annotations

from .coeff import FE_ONE, FieldElem
from .ncalg import TensorElement, add_term, exp_series, sub_term, tensor_of, tensor_pair
from .algebras import classical_presentation
from .report import CheckReport


class NotAntisymmetric(Exception):
    """First-order term of R has a symmetric part."""


def build_universal_r(algebra, rfactors):
    """Ordered product of exp{c * param * left (x) right} factors."""
    unit = TensorElement.unit(algebra, 2)
    out = unit
    for c, left, right in rfactors:
        out = out * exp_series(tensor_pair(algebra.gen(left).scaled(c), algebra.gen(right)), unit)
    return out


def preset_r(bundle):
    if bundle.rfactors is None:
        raise ValueError(f"preset {bundle.name} has no R-matrix recipe")
    return build_universal_r(bundle.presentation, bundle.rfactors)


def _legs(r):
    """R12, R13 and R23 of a two-fold tensor, in the three-fold tensor algebra."""
    return r.embed((0, 1), 3), r.embed((0, 2), 3), r.embed((1, 2), 3)


def qybe_residual(r12, r13, r23):
    """R12 R13 R23 - R23 R13 R12 of the three legs of an R (:func:`_legs` of a
    tensor, ``repfrt.site_pairs`` of a matrix).  (R12 R13) R23 is built first,
    so R12 R13 is freed before R23 R13 is; then ((-R23) R13) R12 is summed into
    it, so the second triple product is never held."""
    out = ((r12 * r13) * r23).terms
    return r12._new(((-r23) * r13)._mul_into(r12, out))


def intertwiner_residual(r, hopf, gen):
    """sigma(Delta(X)) * R - R * Delta(X); zero iff R intertwines.  (-R) * Delta(X)
    is summed into the first product, so Delta(X) keeps its unit scalars."""
    d = hopf.delta[hopf.algebra.index[gen] if isinstance(gen, str) else gen]
    return TensorElement(r.algebra, 2, (-r)._mul_into(d, (d.flip() * r).terms))


def triangularity_residual(r21, r, one):
    """R21 R - 1 for the flipped R ``r21`` and the unit ``one``, the unit
    subtracted inside the product's own terms."""
    out = r21 * r
    for key, c in one.terms.items():
        sub_term(out.terms, key, c)
    return out


def _antisymmetric(pairs, error):
    """``{(i, j): c}`` for ``i < j`` of the pair data ``{(i, j): c}``, after
    checking that each ``(j, i)`` carries ``-c``; the first pair (in ``pairs``
    order) that does not raises ``error(i, j)``."""
    out = {}
    for (i, j), c in pairs.items():
        mirror = pairs.get((j, i))
        if i == j or mirror is None or not (mirror + c).is_zero():
            raise error(i, j)
        if i < j:
            out[(i, j)] = c
    return out


def extract_classical_r(r):
    """First-order part of R as an antisymmetric wedge combination.

    Returns {(i, j): c} with i < j meaning sum_{ij} c * X_i ^ X_j (the
    deformation parameter stripped); raises NotAntisymmetric otherwise.
    """
    names = r.algebra.generators
    first = {}
    for ((w1, w2), k), v in r.terms.items():
        if k != 1:
            continue
        if sum(e for _, e in w1) != 1 or sum(e for _, e in w2) != 1:
            raise NotAntisymmetric("first-order term is not generator (x) generator")
        first[(w1[0][0], w2[0][0])] = v
    return _antisymmetric(first, lambda i, j: NotAntisymmetric(
        f"diagonal first-order term at {names[i]}" if i == j
        else f"first-order term at ({names[i]},{names[j]}) has a symmetric part"))


def classical_r_of_preset(bundle):
    """The wedge data of the bundle's R recipe, read off the factor list.

    Each factor exp{c * param * L (x) R} contributes c * L (x) R at first
    order; the sum must be antisymmetric and is returned in wedge form.
    """
    alg = bundle.presentation
    pairs = {}
    for c, left, right in bundle.rfactors:
        if not c.is_zero():  # a zero factor is the unit, as in build_universal_r
            add_term(pairs, (alg.index[left], alg.index[right]), c)
    return _antisymmetric(pairs, lambda i, j: NotAntisymmetric(
        f"factor recipe of {bundle.name} is not antisymmetric at first order"))


def _wedge_tensor(alg, wedges):
    """``t - t.flip()`` for ``t = sum c * X (x) Y`` over the ``{(X, Y): c}`` of
    ``wedges`` (generator names or indices, in either orientation)."""
    t = tensor_of(alg, [(alg.gen(x) * c, alg.gen(y)) for (x, y), c in wedges.items()])
    return t - t.flip()


def cybe_residual(wedges, classical_alg):
    """[[r, r]] = [r12, r13] + [r12, r23] + [r13, r23] in the classical envelope."""
    r12, r13, r23 = _legs(_wedge_tensor(classical_alg, wedges))
    return (r12.commutator(r13) + r12.commutator(r23) + r13.commutator(r23))


def cocommutator(wedges, gen, classical_alg):
    """delta(X) = [1 (x) X + X (x) 1, r] at the classical level."""
    alg = classical_alg
    one, x = alg.unit(), alg.gen(gen)
    return tensor_of(alg, [(one, x), (x, one)]).commutator(_wedge_tensor(alg, wedges))


def skew_first_order(t, classical_alg):
    """(first-order part of a coproduct) minus its flip, as an order-0 tensor."""
    first = TensorElement(classical_alg, 2,
                          {(ws, 0): v for (ws, k), v in t.terms.items() if k == 1})
    return first - first.flip()


# -- check drivers -------------------------------------------------------------

def check_qybe(bundle):
    r = preset_r(bundle)
    rep = CheckReport(check="qybe", algebra=bundle.name, order=bundle.order)
    rep.expect_zero("R12 R13 R23 - R23 R13 R12", qybe_residual(*_legs(r)))
    return rep


def check_intertwiner(bundle):
    r = preset_r(bundle)
    rep = CheckReport(check="intertwine", algebra=bundle.name, order=bundle.order)
    for g in bundle.presentation.generators:
        rep.expect_zero(f"sigma.Delta({g}).R - R.Delta({g})",
                        intertwiner_residual(r, bundle.hopf, g))
    return rep


def check_triangularity(bundle):
    r = preset_r(bundle)
    one = TensorElement.unit(bundle.presentation, 2)
    rep = CheckReport(check="triangular", algebra=bundle.name, order=bundle.order)
    rep.expect_zero("flip(R).R - 1(x)1", triangularity_residual(r.flip(), r, one))
    return rep


def check_classical_r(bundle):
    """extract_classical_r(R) agrees with the factor-level wedge reading."""
    rep = CheckReport(check="classical-r", algebra=bundle.name, order=bundle.order)
    try:
        got = extract_classical_r(preset_r(bundle))
    except NotAntisymmetric as e:
        rep.add_failure("antisymmetry", str(e))
        return rep
    want = classical_r_of_preset(bundle)
    if got != want:
        alg = bundle.presentation
        rep.add_failure("wedge data", f"got {_wedge_str(alg, got)}, "
                                      f"expected {_wedge_str(alg, want)}")
    return rep


def check_cybe(bundle):
    rep = CheckReport(check="cybe", algebra=bundle.name, order=bundle.order)
    calg = classical_presentation(bundle)
    rep.expect_zero("[[r,r]]", cybe_residual(classical_r_of_preset(bundle), calg))
    return rep


def check_cocommutator_link(bundle):
    """delta(X) from the classical r equals Delta_(1) - flip(Delta_(1))."""
    calg = classical_presentation(bundle)
    wedges = classical_r_of_preset(bundle)
    rep = CheckReport(check="cocommutator", algebra=bundle.name, order=bundle.order)
    for g in bundle.presentation.generators:
        d = bundle.hopf.delta[bundle.presentation.index[g]]
        rep.expect_zero(f"delta({g})",
                        skew_first_order(d, calg) - cocommutator(wedges, g, calg))
    return rep


def check_factorization(bundle):
    """The four-factor so(2,2) R equals the merged two-factor form."""
    alg = bundle.presentation
    rep = CheckReport(check="r-factorization", algebra=bundle.name, order=bundle.order)
    four = preset_r(bundle)

    def leg(c, left, right):
        return TensorElement(alg, 2, {((((alg.index[left], 1),),
                                        ((alg.index[right], 1),)), 1): c})

    merged = (leg(FieldElem(-1), "P0_hat", "J_hat")
              + leg(FieldElem(-1), "P", "D")).exp() \
        * (leg(FE_ONE, "J_hat", "P0_hat") + leg(FE_ONE, "D", "P")).exp()
    rep.expect_zero("four-factor vs merged", four - merged)
    return rep


def _wedge_str(alg, wedges):
    names = alg.generators
    return " + ".join(f"{c}*{names[i]}^{names[j]}" for (i, j), c in sorted(wedges.items())) or "0"


NP_EXPECTED_COCOMMUTATORS = {
    # delta(X) wedge tables of the null-plane bialgebra
    "P_plus": {},
    "E_1": {},
    "P_1": {("P_1", "P_plus"): 2},
    "P_minus": {("P_minus", "P_plus"): 2},
    "F_1": {("F_1", "P_plus"): 2, ("E_1", "P_minus"): 2},
    "K_2": {("K_2", "P_plus"): 2, ("E_1", "P_1"): 2},
}


def check_np_cocommutator_table(bundle):
    """The engine's cocommutators equal the published null-plane table."""
    calg = classical_presentation(bundle)
    wedges = classical_r_of_preset(bundle)
    rep = CheckReport(check="cocommutator-table", algebra=bundle.name, order=bundle.order)
    for g, table in NP_EXPECTED_COCOMMUTATORS.items():
        rep.expect_zero(f"delta({g})",
                        cocommutator(wedges, g, calg) - _wedge_tensor(calg, table))
    return rep
