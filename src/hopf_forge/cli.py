"""Command-line front end: preset browser, expression tools, verification driver.

Exit codes: 0 when every requested check passes, 1 when any check fails,
2 on usage errors (unknown preset, malformed expression, bad flags).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .algebras import (FAULTS, PRESET_NAMES, PresetConstructionError,
                       check_basis_change, check_casimir_centrality,
                       check_classical_limits, cross_check_two_copy, preset,
                       set_active_fault)
from .coeff import DeformationSeries
from .expr import (ExpressionError, ExpressionSyntaxError, UnknownSymbol,
                   parse_to_element, render_element, render_tensor)
from .ncalg import NCElement
from .report import CheckReport

REPORT_VERSION = 1

DEFAULT_ORDER_2FOLD = 4
DEFAULT_ORDER_3FOLD = 3
DEFAULT_TIMEOUT_SECS = 900

R_PRESETS = ("sl2", "so22", "nullplane")
R_CHECKS = ("qybe", "intertwine", "triangular", "cybe", "cocommutator")

CHECK_NAMES = (
    "consistency", "hopf", "casimir", "classical", "subalgebra",
    "qybe", "intertwine", "triangular", "cybe", "cocommutator", "rfactor",
    "twocopy", "basischange", "contraction",
    "matrixrep", "matrixr", "poisson", "rtt", "weyl", "groupcoproduct",
    "qplane", "diffrep",
)


class UsageError(Exception):
    pass


def _collect(reports, out):
    if isinstance(reports, CheckReport):
        out.append(reports)
    else:
        out.extend(reports)


def _run_timed(label, fn, out, budget, order):
    from .coeff import CoeffError
    from .ncalg import AlgebraError
    from .repfrt import InconsistentBivector
    from .rmat import NotAntisymmetric

    name, algebra = label
    t0 = time.monotonic()
    try:
        reports = fn()
    except PresetConstructionError as e:
        e.report.seconds = time.monotonic() - t0
        out.append(e.report)
        return
    except (NotAntisymmetric, InconsistentBivector, AlgebraError, CoeffError) as e:
        rep = CheckReport(check=name, algebra=algebra, order=order,
                          seconds=time.monotonic() - t0)
        rep.add_failure(type(e).__name__, str(e))
        out.append(rep)
        return
    elapsed = time.monotonic() - t0
    batch = []
    _collect(reports, batch)
    for r in batch:
        if not r.seconds:
            r.seconds = elapsed / max(len(batch), 1)
    if elapsed > budget:
        for r in batch:
            r.add_failure("wall clock", f"exceeded the {budget}s budget ({elapsed:.1f}s)")
    out.extend(batch)


def _verify_plan(check, algebra, args):
    """List of zero-argument runners realizing one verify verb."""
    order2 = args.order if args.order is not None else DEFAULT_ORDER_2FOLD
    order3 = args.order if args.order is not None else DEFAULT_ORDER_3FOLD

    def qybe_order(name):
        if args.order is not None:
            return args.order
        return 2 if name == "so22" else DEFAULT_ORDER_3FOLD

    def presets_for(name):
        if algebra and name in R_CHECKS and algebra not in R_PRESETS:
            if check != "all":
                raise UsageError(f"preset {algebra!r} carries no R-matrix recipe")
            return ()
        if algebra:
            return (algebra,)
        if name in ("qybe", "triangular"):
            return R_PRESETS
        if name == "intertwine":
            return ("sl2", "nullplane")
        if name in ("cybe", "cocommutator"):
            return ("so22", "nullplane")
        return PRESET_NAMES

    def only_on(name, home):
        """A check that runs on one preset: ``home``, unless --algebra names another."""
        if algebra and algebra != home:
            if check != "all":
                raise UsageError(f"check {name!r} runs on the {home} preset only")
            return ()
        return (home,)

    from . import contraction, diffrep, repfrt, rmat

    plan = []

    def add(name, alg, fn):
        plan.append(((name, alg), fn))

    if check in ("consistency", "all"):
        for p in presets_for("consistency"):
            add("consistency", p,
                lambda p=p: preset(p, order2).presentation.consistency_check())
    if check in ("hopf", "all"):
        for p in presets_for("hopf"):
            add("hopf", p, lambda p=p: preset(p, order2).hopf.run_all_checks())
    if check in ("casimir", "all"):
        for p in presets_for("casimir"):
            add("casimir-centrality", p, lambda p=p: check_casimir_centrality(p, order2))
    if check in ("classical", "all"):
        for p in only_on("classical", "nullplane"):
            add("classical-limit", p, lambda: check_classical_limits(order2))
    if check in ("subalgebra", "all"):
        for p in only_on("subalgebra", "nullplane"):
            add("hopf-subalgebra", p,
                lambda: preset("nullplane", order2).hopf.subalgebra_check(
                    ("P_plus", "P_1", "E_1", "K_2")))
    if check in ("qybe", "all"):
        for p in presets_for("qybe"):
            add("qybe", p, lambda p=p: rmat.check_qybe(p, qybe_order(p)))
    if check in ("intertwine", "all"):
        for p in presets_for("intertwine"):
            add("intertwine", p, lambda p=p: rmat.check_intertwiner(p, order3))
    if check in ("triangular", "all"):
        for p in presets_for("triangular"):
            add("triangular", p, lambda p=p: rmat.check_triangularity(p, order2))
    if check in ("cybe", "all"):
        for p in presets_for("cybe"):
            add("cybe", p, lambda p=p: rmat.check_cybe(p, order2))
    if check in ("cocommutator", "all"):
        for p in presets_for("cocommutator"):
            add("cocommutator", p, lambda p=p: rmat.check_cocommutator_link(p, order2))
        add("cocommutator-table", "nullplane",
            lambda: rmat.check_np_cocommutator_table(order2))
        for p in presets_for("qybe"):
            add("classical-r", p, lambda p=p: rmat.check_classical_r(p, order2))
    if check in ("rfactor", "all"):
        add("r-factorization", "so22", lambda: rmat.check_factorization(order2))
    if check in ("twocopy", "all"):
        add("twocopy", "so22", lambda: cross_check_two_copy(order2))
    if check in ("basischange", "all"):
        add("basis-change", "sl2-jbasis", lambda: check_basis_change(order2))
    if check in ("contraction", "all"):
        add("contraction", "nullplane", lambda: contraction.contract_so22(order2))
    if check in ("matrixrep", "all"):
        add("matrixrep", "nullplane", lambda: repfrt.check_matrix_rep(order2))
    if check in ("matrixr", "all"):
        add("matrix-r", "nullplane", lambda: repfrt.check_matrix_r(max(order2, 3)))
    if check in ("poisson", "all"):
        add("poisson-table", "poincare-group",
            lambda: repfrt.check_poisson_table(order2))
        add("poisson-jacobi", "poincare-group",
            lambda: repfrt.check_poisson_jacobi(order2))
    if check in ("rtt", "all"):
        add("rtt", "qpoincare",
            lambda: repfrt.check_rtt(order2, fault=args.inject_fault))
    if check in ("weyl", "all"):
        add("weyl", "qpoincare", lambda: repfrt.check_weyl_correspondence(order2))
    if check in ("groupcoproduct", "all"):
        add("group-coproduct", "qpoincare",
            lambda: repfrt.check_group_coproduct(order2))
    if check in ("qplane", "all"):
        add("qplane", "qplane", lambda: repfrt.check_quantum_plane(order2))
    if check in ("diffrep", "all"):
        add("diffrep", "nullplane",
            lambda: diffrep.run_diffrep_checks(order2, fault=args.inject_fault))
    return plan, order2


def cmd_verify(args):
    if args.check != "all" and args.check not in CHECK_NAMES:
        raise UsageError(f"unknown check {args.check!r}; choose from "
                         f"all, {', '.join(CHECK_NAMES)}")
    if args.algebra and args.algebra not in PRESET_NAMES:
        raise UsageError(f"unknown preset {args.algebra!r}")
    if args.inject_fault:
        set_active_fault(args.inject_fault)
    try:
        plan, order = _verify_plan(args.check, args.algebra, args)
        if not plan:
            raise UsageError(f"check {args.check!r} takes no --algebra "
                             f"{args.algebra!r} combination")
        reports = []
        budget = args.timeout_secs or DEFAULT_TIMEOUT_SECS
        for label, fn in plan:
            _run_timed(label, fn, reports, budget, order)
    finally:
        set_active_fault(None)

    reports.sort(key=lambda r: (r.check, r.algebra or ""))
    ok = all(r.passed for r in reports)
    if args.format == "json":
        doc = {
            "reportVersion": REPORT_VERSION,
            "status": "pass" if ok else "fail",
            "checks": [r.to_dict() for r in reports],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for r in reports:
            print(r)
        print(f"{'PASS' if ok else 'FAIL'}: {sum(r.passed for r in reports)}"
              f"/{len(reports)} checks passed")
    return 0 if ok else 1


def _algebra_for(args):
    if not args.algebra:
        raise UsageError("--algebra is required for this command")
    if args.algebra not in PRESET_NAMES:
        raise UsageError(f"unknown preset {args.algebra!r}")
    order = args.order if args.order is not None else DEFAULT_ORDER_2FOLD
    return preset(args.algebra, order)


def cmd_normalize(args):
    bundle = _algebra_for(args)
    elem = parse_to_element(args.expression, bundle.presentation)
    print(render_element(elem, args.format))
    return 0


def cmd_expand(args):
    bundle = _algebra_for(args)
    alg = bundle.presentation
    elem = parse_to_element(args.expression, alg)
    if args.format == "json":
        doc = {"param": alg.param, "orders": {}}
        for k in range(alg.order + 1):
            part = _order_part(elem, k)
            if not part.is_zero():
                doc["orders"][k] = part.to_dict()
        print(json.dumps(doc, sort_keys=True))
        return 0
    for k in range(alg.order + 1):
        part = _order_part(elem, k)
        if not part.is_zero():
            print(f"{alg.param}^{k}: {render_element(part, args.format)}")
    if elem.is_zero():
        print("0")
    return 0


def _order_part(elem, k):
    alg = elem.algebra
    out = {}
    for w, c in elem.terms.items():
        v = c.coefficient(k)
        if not v.is_zero():
            out[w] = DeformationSeries.monomial(v, k, alg.param, alg.order)
    return NCElement(alg, out)


def cmd_show(args):
    from . import diffrep, repfrt, rmat
    what = args.subject
    fmt = args.format
    if what == "hamiltonian":
        order = args.order if args.order is not None else DEFAULT_ORDER_2FOLD
        coeffs = diffrep.hamiltonian_series(order)
        if fmt == "json":
            print(json.dumps({"param": "w",
                              "coefficients": [repr(c) for c in coeffs]}, indent=2))
        elif fmt == "latex":
            bits = [f"w^{{{k}}} \\left[{_rf_latex(c)}\\right]"
                    for k, c in enumerate(coeffs) if not c.is_zero()]
            print(" + ".join(bits))
        else:
            for k, c in enumerate(coeffs):
                print(f"w^{k}: {c!r}")
        return 0
    if what == "brackets":
        table = repfrt.bracket_table_json()
        if fmt == "json":
            print(json.dumps(table, indent=2, sort_keys=True))
        else:
            for k in sorted(table):
                print(f"{k} = w * ({table[k]})")
        return 0

    bundle = _algebra_for(args)
    alg = bundle.presentation
    if what == "generators":
        print(" < ".join(alg.generators))
        print(f"deformation parameter: {alg.param}; truncation order: {alg.order}")
        print("primitive generators:", ", ".join(bundle.hopf.primitive_generators()))
    elif what == "relations":
        for j in range(len(alg.generators)):
            for i in range(j):
                comm = alg.gen(j).commutator(alg.gen(i))
                print(f"[{alg.generators[j]},{alg.generators[i]}] = "
                      f"{render_element(comm, fmt)}")
    elif what == "coproducts":
        for i, g in enumerate(alg.generators):
            print(f"Delta({g}) = {render_tensor(bundle.hopf.delta[i], fmt)}")
    elif what == "antipodes":
        for i, g in enumerate(alg.generators):
            print(f"gamma({g}) = {render_element(bundle.hopf.antipode[i], fmt)}")
    elif what == "casimirs":
        for name, cas in bundle.casimirs.items():
            print(f"{name} = {render_element(cas, fmt)}")
    elif what == "rmatrix":
        if bundle.rfactors is None:
            raise UsageError(f"preset {args.algebra!r} carries no R-matrix recipe")
        r = rmat.preset_r(args.algebra, alg.order)
        print(render_tensor(r, fmt))
    else:
        raise UsageError(f"unknown subject {what!r}")
    return 0


def _rf_latex(c):
    return repr(c).replace("*", " ")


def cmd_preset(args):
    if not args.name:
        for name in PRESET_NAMES:
            b = preset(name, 2)
            print(f"{name}: generators {', '.join(b.presentation.generators)} "
                  f"(parameter {b.presentation.param})")
        return 0
    if args.name not in PRESET_NAMES:
        raise UsageError(f"unknown preset {args.name!r}")
    order = args.order if args.order is not None else DEFAULT_ORDER_2FOLD
    b = preset(args.name, order)
    alg = b.presentation
    print(f"preset {args.name} at truncation order {order}")
    print(f"  generator order: {' < '.join(alg.generators)}")
    print(f"  deformation parameter: {alg.param}")
    print(f"  casimirs: {', '.join(b.casimirs)}")
    print(f"  primitive generators: {', '.join(b.hopf.primitive_generators())}")
    if b.rfactors:
        legs = " ".join(f"exp[{c}{alg.param} {l}(x){r}]" for c, l, r in b.rfactors)
        print(f"  R-matrix factors: {legs}")
    return 0


def _order_arg(text):
    """Truncation order from --order or HOPF_FORGE_ORDER: an integer in 1..6."""
    try:
        order = int(text)
    except ValueError:
        order = 0
    if not 1 <= order <= 6:
        raise argparse.ArgumentTypeError(
            f"must be an integer between 1 and 6 (--order or HOPF_FORGE_ORDER), got {text!r}")
    return order


def build_parser():
    p = argparse.ArgumentParser(
        prog="hopf-forge",
        description="exact verification engine for non-standard quantum "
                    "deformations of sl(2,R), so(2,2) and the (2+1) null-plane "
                    "Poincare algebra")
    # a string default goes through ``type`` too, unless --order is given
    default_order = os.environ.get("HOPF_FORGE_ORDER") or None

    def add_common(sp, formats=("text", "json")):
        sp.add_argument("--order", type=_order_arg, default=default_order,
                        help="truncation order (1..6; default 4, QYBE 3)")
        sp.add_argument("--format", choices=formats, default="text")

    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="run verification checks")
    sp.add_argument("check", help=f"all or one of: {', '.join(CHECK_NAMES)}")
    sp.add_argument("--algebra", help="restrict to one preset")
    sp.add_argument("--timeout-secs", type=float, default=None,
                    help="per-check wall-clock budget (default 900)")
    sp.add_argument("--inject-fault", choices=sorted(FAULTS),
                    help="testing hook: corrupt one structure and expect failure")
    add_common(sp)
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("normalize", help="normal-order an expression")
    sp.add_argument("expression")
    sp.add_argument("--algebra", required=True)
    add_common(sp, ("text", "json", "latex"))
    sp.set_defaults(fn=cmd_normalize)

    sp = sub.add_parser("expand", help="normal-order and display order by order")
    sp.add_argument("expression")
    sp.add_argument("--algebra", required=True)
    add_common(sp, ("text", "json", "latex"))
    sp.set_defaults(fn=cmd_expand)

    sp = sub.add_parser("show", help="display preset structures")
    sp.add_argument("subject",
                    choices=("generators", "relations", "coproducts", "antipodes",
                             "casimirs", "rmatrix", "hamiltonian", "brackets"))
    sp.add_argument("--algebra")
    add_common(sp, ("text", "json", "latex"))
    sp.set_defaults(fn=cmd_show)

    sp = sub.add_parser("preset", help="list presets or describe one")
    sp.add_argument("name", nargs="?")
    add_common(sp)
    sp.set_defaults(fn=cmd_preset)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ExpressionSyntaxError, UnknownSymbol, ExpressionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PresetConstructionError as e:
        print(e.report, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
