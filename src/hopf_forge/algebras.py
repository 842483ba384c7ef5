"""Preset catalog: the quantum algebras with full Hopf data.

Builds, in exact arithmetic at a chosen truncation order:

* ``sl2``        -- the non-standard quantum sl(2,R) in the A-basis,
* ``so22``       -- the conformal so(2,2) deformation (two commuting sl(2,R)
                    copies with opposite parameters),
* ``nullplane``  -- the (2+1) null-plane quantum Poincare algebra,
* ``sl2-jbasis`` -- the J-basis presentation of the same sl(2,R) deformation.

:func:`transport` presents a bundle in new generators, given as elements of
the old ones: it derives the new relation table from the images of the old
commutators, and carries the Hopf maps and Casimirs over by ``substitute``.
``sl2-jbasis`` is the A-basis transported through the nonlinear change of
basis of :func:`jbasis_maps`; the contraction's ``nullplane-eps`` algebra is
so(2,2) transported to rescaled null-plane generators.

Every exponential is stored pre-expanded to the working order, each one a
:func:`~hopf_forge.ncalg.exp_series` (through :func:`exp_gen`); changing the
order rebuilds the preset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .coeff import FieldElem, rat
from .hopf import HopfMaps
from .ncalg import (AlgebraPresentation, NCElement, TensorElement, WordMap, exp_series,
                    rule_images, tensor_of, tensor_pair)
from .report import CheckReport, timed_reports

PRESET_NAMES = ("sl2", "so22", "nullplane", "sl2-jbasis")

# faults deliberately corrupt one structure each (the CLI's --inject-fault):
# the verify plan passes the fault to preset(name, order, fault), whose bundle
# carries it (diffrep reads it there), and to the rtt, weyl and group-coproduct
# checks, which build the FRT presentation themselves
FAULTS = {
    "ncalg-rule": "corrupt the [E_1,F_1]=K_2 rewrite rule of the nullplane preset",
    "hopf-coproduct": "drop the P_minus term from the nullplane coproduct of F_1",
    "algebras-casimir": "double the P_1^2 term of the nullplane mass Casimir",
    "rmat-factor": "flip the sign of the last nullplane R-matrix factor",
    "repfrt-rule": "flip the sign of the quantum-group rule [a_plus, a_1]",
    "diffrep-op": "insert a spurious exponential into the F_1 differential operator",
}


@dataclass(eq=False)
class PresetBundle:
    """One quantum algebra with its Hopf maps, Casimirs and R-matrix recipe;
    compared and hashed by identity, as caches key on it.  The build behind
    :func:`preset` sets ``fault`` (the :data:`FAULTS` key built in, or None)
    and ``consistency`` (the presentation's consistency report) once."""

    name: str
    presentation: AlgebraPresentation
    hopf: HopfMaps
    casimirs: dict
    rfactors: tuple | None
    aux: dict = field(default_factory=dict)
    fault: str | None = None
    consistency: CheckReport | None = None

    @property
    def order(self):
        return self.presentation.order


# -- series-element builders -------------------------------------------------

def exp_gen(alg, c, g, shift=0, parity=None):
    """sum_b (c*g)^b/b! * param^(b+shift) over the b of ``parity``: exp(c*param*g)
    for shift 0, (exp(c*param*g) - 1)/param for shift -1, and a parity picks
    the cosh or sinh part (:func:`~hopf_forge.ncalg.exp_series`)."""
    return exp_series(alg.gen(g).scaled(c), alg.unit(), shift, parity)


def _so22_series(alg, c, parity, shift=0):
    """e^{czP} cosh(zP0) for parity 0, e^{czP} sinh(zP0) for parity 1; shift -1
    drops its z^0 part X(0) and divides by z, as (X - X(0))/z + X (e^{czP} - 1)/z
    with X = cosh(zP0) or sinh(zP0).  P and P0 commute, and e^{czP} goes on the
    left, where the product's words are already normal (the rules are built
    from these)."""
    x = exp_gen(alg, 1, 1, parity=parity)
    prod = exp_gen(alg, c, 0, shift=shift) * x
    return prod if shift == 0 else exp_gen(alg, 1, 1, shift=-1, parity=parity) + prod


# -- shared structure data -----------------------------------------------------

# classical null-plane brackets [X, Y] -> {generator: coefficient}
NP_CLASSICAL_BRACKETS = {
    ("K_2", "P_plus"): {"P_plus": 1},
    ("K_2", "P_minus"): {"P_minus": -1},
    ("K_2", "E_1"): {"E_1": 1},
    ("K_2", "F_1"): {"F_1": -1},
    ("E_1", "P_1"): {"P_plus": 1},
    ("F_1", "P_1"): {"P_minus": 1},
    ("E_1", "F_1"): {"K_2": 1},
    ("P_plus", "F_1"): {"P_1": -1},
    ("P_minus", "E_1"): {"P_1": -1},
}

NP_GENERATORS = ("P_plus", "P_1", "P_minus", "E_1", "K_2", "F_1")
SO22_GENERATORS = ("P", "P0_hat", "J_hat", "D", "C_1", "C_2")


def classical_bracket_element(alg, x, y):
    """The classical null-plane bracket [x, y] as an element of ``alg``."""
    table, sign = NP_CLASSICAL_BRACKETS.get((x, y)), 1
    if table is None:
        table, sign = NP_CLASSICAL_BRACKETS.get((y, x), {}), -1
    return sum((alg.gen(g) * FieldElem(sign * c) for g, c in table.items()), alg.zero())


def sl2_commutators(alg, ap, a, am, s):
    """[g_i, g_j] of one non-standard sl(2,R) copy with parameter s*z, keyed by
    the generator indices ap < a < am."""
    return {
        # [A+, A] = -(e^{2szA+}-1)/(sz)
        (ap, a): -(exp_gen(alg, 2 * s, ap, shift=-1) * FieldElem(s)),
        # [A, A-] = -2A- + szA^2
        (a, am): alg.gen(am) * FieldElem(-2)
        + alg.scalar(FieldElem(s), 1) * alg.gen(a) * alg.gen(a),
        # [A+, A-] = A
        (ap, am): alg.gen(a),
    }


def sl2_hopf(alg, ap, a, am, s):
    """Coproducts and antipodes of one sl(2,R) copy with parameter s*z, as two
    dicts keyed by generator index; the rules must already be installed."""
    gen, unit = alg.gen, alg.unit()
    e_p = exp_gen(alg, 2 * s, ap)
    e_m = exp_gen(alg, -2 * s, ap)
    delta = {
        ap: tensor_of(alg, [(unit, gen(ap)), (gen(ap), unit)]),
        a: tensor_of(alg, [(unit, gen(a)), (gen(a), e_p)]),
        am: tensor_of(alg, [(unit, gen(am)), (gen(am), e_p)]),
    }
    antipode = {ap: -gen(ap), a: -(gen(a) * e_m), am: -(gen(am) * e_m)}
    return delta, antipode


def sl2_casimir(alg, ap, a, am, sign=1):
    """Quantum Casimir of one non-standard sl(2,R) copy (parameter sign*z)."""
    a_e, am_e = alg.gen(a), alg.gen(am)
    e_minus = exp_gen(alg, -2 * sign, ap)
    g = exp_gen(alg, -2 * sign, ap, shift=-1) * FieldElem(rat(-sign, 2))
    half = FieldElem(rat(1, 2))
    return (a_e * e_minus * a_e) * half + g * am_e + am_e * g + e_minus - alg.unit()


# -- preset builders -----------------------------------------------------------

def build_preset(name, order, fault=None):
    if name == "sl2":
        return _build_sl2(order)
    if name == "so22":
        return _build_so22(order)
    if name == "nullplane":
        return _build_nullplane(order, fault)
    if name == "sl2-jbasis":
        return _build_jbasis(order)
    raise ValueError(f"unknown preset {name!r} (choose from {', '.join(PRESET_NAMES)})")


class PresetConstructionError(RuntimeError):
    """A preset failed its construction-time consistency check."""

    def __init__(self, report):
        super().__init__(str(report))
        self.report = report


@lru_cache(maxsize=None)
def _built_cached(name, order, fault):
    bundle = build_preset(name, order, fault)
    bundle.fault = fault
    bundle.consistency = bundle.presentation.consistency_check()
    return bundle


def preset(name, order, fault=None):
    """Preset bundle whose construction-time consistency check passed, with
    the named fault of :data:`FAULTS` built in (a testing hook) and carried
    as ``bundle.fault``.

    The cache is keyed by the fault so corrupted structures never leak into
    fault-free runs (and vice versa).
    """
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}")
    bundle = _built_cached(name, order, fault)
    if not bundle.consistency.passed:
        raise PresetConstructionError(bundle.consistency)
    return bundle


def _build_sl2(order):
    alg = AlgebraPresentation("sl2", ("A_plus", "A", "A_minus"), "z", order,
                              {"A_plus": "A_+", "A": "A", "A_minus": "A_-"})
    ap, a, am = 0, 1, 2
    alg.set_commutators(sl2_commutators(alg, ap, a, am, 1))
    delta, antipode = sl2_hopf(alg, ap, a, am, 1)
    counit = {i: FieldElem(0) for i in range(3)}
    hopf = HopfMaps(alg, delta, counit, antipode)

    casimirs = {"C_z": sl2_casimir(alg, ap, a, am)}
    rfactors = ((FieldElem(-1), "A_plus", "A"), (FieldElem(1), "A", "A_plus"))
    return PresetBundle("sl2", alg, hopf, casimirs, rfactors)


def _so22_commutators(alg):
    """[g_i, g_j] for i < j in the order P < P0 < J < D < C1 < C2."""
    P, P0, J, D, C1, C2 = range(6)
    gen = alg.gen
    z = lambda v: alg.scalar(FieldElem(v), 1)  # noqa: E731
    # (e^{zP} cosh(z P0) - 1)/z  and  e^{zP} sinh(z P0)/z
    cosh_div = _so22_series(alg, 1, 0, -1)
    sinh_div = _so22_series(alg, 1, 1, -1)
    jj_dd = gen(J) * gen(J) + gen(D) * gen(D)
    jd = gen(J) * gen(D)
    zero = alg.zero()
    return {
        (P, P0): zero,
        (P, J): -sinh_div,
        (P, D): -cosh_div,
        (P, C1): gen(J) * FieldElem(-2),
        (P, C2): gen(D) * FieldElem(2),
        (P0, J): -cosh_div,
        (P0, D): -sinh_div,
        (P0, C1): gen(D) * FieldElem(-2),
        (P0, C2): gen(J) * FieldElem(2),
        (J, D): zero,
        (J, C1): gen(C2) - z(1) * jj_dd,
        (J, C2): gen(C1) + z(2) * jd,
        (D, C1): -gen(C1) - z(2) * jd,
        (D, C2): -gen(C2) + z(1) * jj_dd,
        (C1, C2): zero,
    }


def _build_so22(order):
    alg = AlgebraPresentation("so22", SO22_GENERATORS, "z", order,
                              {"P": "P", "P0_hat": r"\hat{P}_0", "J_hat": r"\hat{J}",
                               "D": "D", "C_1": "C_1", "C_2": "C_2"})
    comm = _so22_commutators(alg)
    alg.set_commutators(comm)

    P, P0, J, D, C1, C2 = range(6)
    gen, unit = alg.gen, alg.unit()
    # e^{zP} cosh(z P0), e^{zP} sinh(z P0) and the same with e^{-zP}
    ecosh, esinh = _so22_series(alg, 1, 0), _so22_series(alg, 1, 1)
    mcosh, msinh = _so22_series(alg, -1, 0), _so22_series(alg, -1, 1)
    delta = {
        P0: tensor_of(alg, [(unit, gen(P0)), (gen(P0), unit)]),
        P: tensor_of(alg, [(unit, gen(P)), (gen(P), unit)]),
        J: tensor_of(alg, [(unit, gen(J)), (gen(J), ecosh), (gen(D), esinh)]),
        D: tensor_of(alg, [(unit, gen(D)), (gen(D), ecosh), (gen(J), esinh)]),
        C1: tensor_of(alg, [(unit, gen(C1)), (gen(C1), ecosh), (-gen(C2), esinh)]),
        C2: tensor_of(alg, [(unit, gen(C2)), (gen(C2), ecosh), (-gen(C1), esinh)]),
    }
    counit = {i: FieldElem(0) for i in range(6)}
    antipode = {
        P0: -gen(P0),
        P: -gen(P),
        J: -(gen(J) * mcosh) + gen(D) * msinh,
        D: -(gen(D) * mcosh) + gen(J) * msinh,
        C1: -(gen(C1) * mcosh) - gen(C2) * msinh,
        C2: -(gen(C2) * mcosh) - gen(C1) * msinh,
    }
    hopf = HopfMaps(alg, delta, counit, antipode)

    # (1 - e^{-zP} cosh(z P0))/(2z) and e^{-zP} sinh(z P0)/(2z)
    half = FieldElem(rat(1, 2))
    g = _so22_series(alg, -1, 0, -1) * (-half)
    h = _so22_series(alg, -1, 1, -1) * half
    j, d, c1, c2 = gen(J), gen(D), gen(C1), gen(C2)
    casimirs = {
        "C1_q": (j * mcosh * j + d * mcosh * d - j * msinh * d - d * msinh * j
                 + g * c2 + c2 * g - h * c1 - c1 * h + mcosh * 2 - unit * 2),
        "C2_q": (j * mcosh * d + d * mcosh * j - j * msinh * j - d * msinh * d
                 - g * c1 - c1 * g + h * c2 + c2 * h - msinh * 2),
    }
    rfactors = ((FieldElem(-1), "P0_hat", "J_hat"), (FieldElem(-1), "P", "D"),
                (FieldElem(1), "D", "P"), (FieldElem(1), "J_hat", "P0_hat"))
    return PresetBundle("so22", alg, hopf, casimirs, rfactors)


def _build_nullplane(order, fault=None):
    alg = AlgebraPresentation("nullplane", NP_GENERATORS, "w", order,
                              {"P_plus": "P_+", "P_1": "P_1", "P_minus": "P_-",
                               "E_1": "E_1", "K_2": "K_2", "F_1": "F_1"})
    Pp, P1, Pm, E1, K2, F1 = range(6)
    gen = alg.gen
    half = FieldElem(rat(1, 2))
    w1 = lambda v: alg.scalar(FieldElem(v), 1)  # noqa: E731

    exp2 = exp_gen(alg, 2, Pp)                         # e^{2wP+}
    exp_div = exp_gen(alg, 2, Pp, shift=-1) * half     # (e^{2wP+}-1)/(2w)

    comm = {
        (Pp, P1): alg.zero(),
        (Pp, Pm): alg.zero(),
        (Pp, E1): alg.zero(),
        (Pp, K2): -exp_div,
        (Pp, F1): -gen(P1),
        (P1, Pm): alg.zero(),
        (P1, E1): -exp_div,
        (P1, K2): alg.zero(),
        (P1, F1): -(gen(Pm) + w1(1) * gen(P1) * gen(P1)),
        (Pm, E1): -gen(P1),
        (Pm, K2): gen(Pm) + w1(1) * gen(P1) * gen(P1),
        (Pm, F1): alg.zero(),
        (E1, K2): -(exp2 * gen(E1)),
        (E1, F1): gen(K2),
        (K2, F1): -gen(F1) - w1(2) * gen(P1) * gen(K2),
    }
    if fault == "ncalg-rule":
        comm[(E1, F1)] = gen(K2) * FieldElem(2)
    alg.set_commutators(comm)

    unit = alg.unit()
    delta = {
        Pp: tensor_of(alg, [(unit, gen(Pp)), (gen(Pp), unit)]),
        E1: tensor_of(alg, [(unit, gen(E1)), (gen(E1), unit)]),
        Pm: tensor_of(alg, [(unit, gen(Pm)), (gen(Pm), exp2)]),
        P1: tensor_of(alg, [(unit, gen(P1)), (gen(P1), exp2)]),
        F1: tensor_of(alg, [(unit, gen(F1)), (gen(F1), exp2)])
        + tensor_pair(gen(Pm), exp2 * gen(E1)).scaled(FieldElem(-2), 1),
        K2: tensor_of(alg, [(unit, gen(K2)), (gen(K2), exp2)])
        + tensor_pair(gen(P1), exp2 * gen(E1)).scaled(FieldElem(-2), 1),
    }
    if fault == "hopf-coproduct":
        delta[F1] = tensor_of(alg, [(unit, gen(F1)), (gen(F1), exp2)])
    counit = {i: FieldElem(0) for i in range(6)}
    exp2m = exp_gen(alg, -2, Pp)
    antipode = {
        Pp: -gen(Pp),
        E1: -gen(E1),
        Pm: -(gen(Pm) * exp2m),
        P1: -(gen(P1) * exp2m),
        F1: -(gen(F1) * exp2m) - w1(2) * gen(Pm) * exp2m * gen(E1),
        K2: -(gen(K2) * exp2m) - w1(2) * gen(P1) * exp2m * gen(E1),
    }
    hopf = HopfMaps(alg, delta, counit, antipode)

    # (1 - e^{-2wP+})/w  and the quantum Casimirs
    kw = -exp_gen(alg, -2, Pp, shift=-1)
    mq2 = gen(Pm) * kw - gen(P1) * gen(P1) * exp2m
    if fault == "algebras-casimir":
        mq2 = gen(Pm) * kw - gen(P1) * gen(P1) * exp2m * FieldElem(2)
    lq = (gen(K2) * gen(P1) * exp2m
          + gen(E1) * (gen(Pm) + w1(1) * gen(P1) * gen(P1)) * exp2m
          - gen(F1) * (kw * half))
    casimirs = {"M_q2": mq2, "L_q": lq}

    rfactors = [(FieldElem(2), "E_1", "P_1"), (FieldElem(-2), "P_plus", "K_2"),
                (FieldElem(2), "K_2", "P_plus"), (FieldElem(-2), "P_1", "E_1")]
    if fault == "rmat-factor":
        rfactors[-1] = (FieldElem(2), "P_1", "E_1")
    return PresetBundle("nullplane", alg, hopf, casimirs, tuple(rfactors),
                        aux={"stability_subalgebra": ("P_plus", "P_1", "E_1", "K_2")})


# -- presentations in new generators ---------------------------------------------

def transport(source, name, generators, images, inverse_images, latex_names):
    """The bundle ``source`` presented in new ``generators``.

    ``inverse_images`` gives each new generator as an element of the source,
    and ``images(alg)`` each source generator as an element of ``alg``, a
    presentation in the new generators.  The rule for g_j*g_i is g_i*g_j plus
    the image of [inverse_j, inverse_i].  The images are computed in a
    presentation with no rules, so an image that needs one raises
    :class:`~hopf_forge.ncalg.MissingRule`, and the rules are rebuilt in the
    returned presentation.  The coproducts, antipodes, counits and Casimirs
    are the source's, applied to the inverse images and carried over by
    ``substitute``.  ``aux`` holds the maps: ``alpha`` (the images) and
    ``beta`` (the inverse images).
    """
    src = source.presentation
    bare = AlgebraPresentation(name, generators, src.param, src.order)
    to_bare = images(bare)
    inverse = [inverse_images[g] for g in generators]
    comm = {(j, i): inverse[j].commutator(inverse[i]).substitute(bare, to_bare).terms
            for j in range(len(generators)) for i in range(j)}
    alg = AlgebraPresentation(name, generators, src.param, src.order, latex_names)
    alg.set_commutators({key: alg.element(terms) for key, terms in comm.items()})
    alpha = images(alg)

    maps = source.hopf
    delta, antipode, counit = {}, {}, {}
    for g, x in inverse_images.items():
        delta[g] = maps.coproduct(x).substitute(alg, alpha)
        antipode[g] = maps.antipode_of(x).substitute(alg, alpha)
        eps = maps.counit_of(x)
        if any(k for _, k in eps.terms):
            raise RuntimeError("transported counit is not scalar")
        counit[g] = eps.terms.get(((), 0), FieldElem(0))
    hopf = HopfMaps(alg, delta, counit, antipode)
    casimirs = {label: c.substitute(alg, alpha) for label, c in source.casimirs.items()}
    return PresetBundle(name, alg, hopf, casimirs, None,
                        aux={"alpha": alpha, "beta": dict(inverse_images)})


def jbasis_maps():
    """The change-of-basis substitution data between the A- and J-bases.

    ``alpha`` sends A-generators to J-elements (A+ = J+, A = e^{zJ+} J3,
    A- = e^{zJ+} J- - (z/4) e^{zJ+} sinh(zJ+)); ``beta`` is its inverse.
    Returned as functions of the respective target presentations.
    """
    def alpha(jalg):
        quarter = FieldElem(rat(1, 4))
        ezjp = exp_gen(jalg, 1, "J_plus")
        sinh = exp_gen(jalg, 1, "J_plus", parity=1)
        return {
            "A_plus": jalg.gen("J_plus"),
            "A": ezjp * jalg.gen("J_3"),
            "A_minus": ezjp * jalg.gen("J_minus")
            - jalg.scalar(quarter, 1) * ezjp * sinh,
        }

    def beta(aalg):
        quarter = FieldElem(rat(1, 4))
        emzap = exp_gen(aalg, -1, "A_plus")
        sinh = exp_gen(aalg, 1, "A_plus", parity=1)
        return {
            "J_plus": aalg.gen("A_plus"),
            "J_3": emzap * aalg.gen("A"),
            "J_minus": emzap * aalg.gen("A_minus")
            + aalg.scalar(quarter, 1) * sinh,
        }

    return alpha, beta


def _build_jbasis(order):
    sl2 = preset("sl2", order)
    alpha, beta = jbasis_maps()
    return transport(sl2, "sl2-jbasis", ("J_plus", "J_3", "J_minus"), alpha,
                     beta(sl2.presentation), {"J_plus": "J_+", "J_3": "J_3", "J_minus": "J_-"})


def check_basis_change(jb):
    """The rules of the sl2 preset hold for the transported generators of the
    J-basis bundle ``jb`` (:func:`~hopf_forge.ncalg.rule_images` of ``alpha``),
    and the change of basis is invertible (round trips on generators)."""
    jalg, aalg = jb.presentation, preset("sl2", jb.order).presentation
    alpha, beta = jb.aux["alpha"], jb.aux["beta"]
    rep = CheckReport(check="basis-change", algebra=jb.name, order=jb.order)
    names = aalg.generators
    for (j, i), comm, image in rule_images(WordMap(aalg, alpha, jalg.unit())):
        rep.expect_zero(f"[{names[j]},{names[i]}]", comm - image)

    a_3, a_m = alpha["A"], alpha["A_minus"]
    # z -> 0 the map is the identity relabeling
    rep.expect_zero("classical limit of A", (a_3 - jalg.gen("J_3")).classical_limit())
    rep.expect_zero("classical limit of A_minus",
                    (a_m - jalg.gen("J_minus")).classical_limit())

    # round trip: beta then alpha is the identity on J generators
    for g in jalg.generators:
        rep.expect_zero(f"roundtrip({g})", beta[g].substitute(jalg, alpha) - jalg.gen(g))
    # and alpha then beta on A generators
    for g in aalg.generators:
        rep.expect_zero(f"roundtrip({g})", alpha[g].substitute(aalg, beta) - aalg.gen(g))
    return rep


# -- two commuting sl(2,R) copies ----------------------------------------------

TWOCOPY_GENERATORS = ("A1_plus", "A2_plus", "A1", "A2", "A1_minus", "A2_minus")


def build_twocopy(order):
    """Two commuting copies of the sl(2,R) preset, parameters z and -z: their
    presentation, coproduct map, the map tau from so(2,2) and the two Casimirs."""
    alg = AlgebraPresentation("sl2-twocopy", TWOCOPY_GENERATORS, "z", order)
    idx = alg.index
    copies = (("A1_plus", "A1", "A1_minus", 1), ("A2_plus", "A2", "A2_minus", -1))
    zero = alg.zero()
    comm = {(i, j): zero for i in range(6) for j in range(i + 1, 6)}
    for ap_n, a_n, am_n, s in copies:
        comm.update(sl2_commutators(alg, idx[ap_n], idx[a_n], idx[am_n], s))
    alg.set_commutators(comm)

    delta = {}
    for ap_n, a_n, am_n, s in copies:
        delta.update(sl2_hopf(alg, idx[ap_n], idx[a_n], idx[am_n], s)[0])

    half = FieldElem(rat(1, 2))
    g = alg.gen
    tau = {
        "J_hat": (g("A1") - g("A2")) * half,
        "D": (g("A1") + g("A2")) * half,
        "P0_hat": g("A1_plus") + g("A2_plus"),
        "P": g("A1_plus") - g("A2_plus"),
        "C_1": -g("A1_minus") - g("A2_minus"),
        "C_2": g("A1_minus") - g("A2_minus"),
    }
    cas1 = sl2_casimir(alg, idx["A1_plus"], idx["A1"], idx["A1_minus"], 1)
    cas2 = sl2_casimir(alg, idx["A2_plus"], idx["A2"], idx["A2_minus"], -1)
    return alg, WordMap(alg, delta, TensorElement.unit(alg, 2)), tau, cas1, cas2


def cross_check_two_copy(so22):
    """The so(2,2) bundle equals the two-copy construction under the map tau."""
    order = so22.order
    alg2, delta2, tau, cas1, cas2 = build_twocopy(order)
    salg = so22.presentation

    def commutators():
        rep = CheckReport(check="twocopy-commutators", algebra="so22", order=order)
        for (j, i), comm, image in rule_images(WordMap(salg, tau, alg2.unit())):
            rep.expect_zero(f"[{salg.generators[i]},{salg.generators[j]}]", image - comm)
        return rep

    def coproducts():
        rep = CheckReport(check="twocopy-coproducts", algebra="so22", order=order)
        for name in salg.generators:
            rhs = so22.hopf.delta[salg.index[name]].substitute(alg2, tau)
            rep.expect_zero(f"Delta({name})", delta2(tau[name]) - rhs)
        return rep

    def casimirs():
        rep = CheckReport(check="twocopy-casimirs", algebra="so22", order=order)
        for label, combo, target in (("C1_q", cas1 + cas2, so22.casimirs["C1_q"]),
                                     ("C2_q", cas1 - cas2, so22.casimirs["C2_q"])):
            rep.expect_zero(label, combo - target.substitute(alg2, tau))
        return rep

    return timed_reports(commutators, coproducts, casimirs)


# -- classical limits -----------------------------------------------------------

@lru_cache(maxsize=None)
def classical_presentation(bundle):
    """The order-0 limit of a bundle's rewriting system (same generators)."""
    src = bundle.presentation
    alg = AlgebraPresentation(f"{bundle.name}-classical", src.generators, src.param,
                              src.order, src.latex_names)
    rules = {k: NCElement(alg, dict(r.classical_limit().terms))
             for k, r in src.rules.items()}
    alg.set_rules(rules)
    return alg


def check_classical_limits(bundle):
    """w -> 0 of the nullplane bundle: brackets and both Casimirs."""
    alg = bundle.presentation
    rep = CheckReport(check="classical-limit", algebra=bundle.name, order=bundle.order)
    names = alg.generators
    for j in range(6):
        for i in range(j):
            x, y = names[j], names[i]
            got = alg.gen(j).commutator(alg.gen(i)).classical_limit()
            rep.expect_zero(f"[{x},{y}]", got - classical_bracket_element(alg, x, y))

    g = alg.gen
    m_cl = (g("P_minus") * g("P_plus")) * FieldElem(2) - g("P_1") * g("P_1")
    l_cl = g("K_2") * g("P_1") + g("E_1") * g("P_minus") - g("F_1") * g("P_plus")
    rep.expect_zero("M_q2 -> M^2", (bundle.casimirs["M_q2"] - m_cl).classical_limit())
    rep.expect_zero("L_q -> L", (bundle.casimirs["L_q"] - l_cl).classical_limit())
    return rep


def check_casimir_centrality(bundle):
    alg = bundle.presentation
    rep = CheckReport(check="casimir-centrality", algebra=bundle.name, order=bundle.order)
    for label, cas in bundle.casimirs.items():
        for g in alg.generators:
            rep.expect_zero(f"[{label},{g}]", cas.commutator(alg.gen(g)))
    return rep
