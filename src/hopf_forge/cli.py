"""Command-line front end: preset browser, expression tools, verification driver.

Exit codes: 0 when every requested check passes, 1 when any check fails or
rewriting an expression fails (an ``ncalg.AlgebraError`` such as a rewrite
that exceeds the step bound), 2 on usage errors (unknown preset, malformed
expression, bad flags).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace
from functools import partial, wraps
from importlib import import_module
from typing import Callable, NamedTuple

from .algebras import (FAULTS, PRESET_NAMES, PresetConstructionError,
                       check_basis_change, check_casimir_centrality,
                       check_classical_limits, cross_check_two_copy, preset)
from .expr import (ExpressionError, parse_to_element, render_element, render_tensor,
                   to_json)
from .ncalg import AlgebraError, NCElement, TensorElement
from .report import CheckReport

REPORT_VERSION = 1

DEFAULT_ORDER_2FOLD = 4
DEFAULT_ORDER_3FOLD = 3
DEFAULT_TIMEOUT_SECS = 900
EXIT_STDOUT_CLOSED = 141  # 128 + SIGPIPE, as a shell reports a process killed by it


class UsageError(Exception):
    pass


class _Row(NamedTuple):
    """One row of the verify table.

    ``run(preset, order)`` returns the row's report(s).  Without --algebra
    the row runs on ``defaults`` (``accepts`` when None) at ``order``, or at
    --order when given, and never below ``min_order``.
    """

    label: str
    accepts: tuple
    order: int
    run: Callable
    defaults: tuple | None = None
    min_order: int = 1


def _consistency(name, order, fault):
    """A copy of the consistency report cached when the preset was built; a
    copy, so that its timing or a budget failure never reaches the cache."""
    try:
        rep = preset(name, order, fault).consistency
    except PresetConstructionError as e:
        rep = e.report
    return replace(rep, failures=list(rep.failures))


class _LazyModule:
    """A check module as the verify table names it: ``m.f`` calls the module's
    ``f``, and its ``module`` names the module for the plan to import.  So
    building the table (the ``verify`` help too) imports no check module."""

    def __init__(self, name):
        self.module = f"{__package__}.{name}"

    def __getattr__(self, attr):
        def call(*args, **kwargs):
            return getattr(import_module(self.module), attr)(*args, **kwargs)
        call.module = self.module
        return call


def _check_table(fault=None):
    """Verify verb -> its rows, in plan order.  ``fault`` goes into every
    preset a row checks, which carries it to the check, and to the rtt, weyl
    and group-coproduct checks, which build the FRT presentation themselves."""
    contraction, diffrep, repfrt, rmat = map(
        _LazyModule, ("contraction", "diffrep", "repfrt", "rmat"))

    every = PRESET_NAMES
    r_recipe = ("sl2", "so22", "nullplane")
    null = ("nullplane",)
    o2, o3 = DEFAULT_ORDER_2FOLD, DEFAULT_ORDER_3FOLD

    def on(check):
        """A runner for a check of the preset bundle, built with the fault."""
        return wraps(check)(lambda p, order: check(preset(p, order, fault)))

    def at(check):
        """A runner for a check that takes the order only."""
        return wraps(check)(lambda p, order: check(order))

    def faulted(check):
        """A runner for a check that takes the order and the fault."""
        return wraps(check)(lambda p, order: check(order, fault=fault))

    def hopf_axioms(bundle):
        return bundle.hopf.run_all_checks()

    def stability_subalgebra(bundle):
        return bundle.hopf.subalgebra_check(bundle.aux["stability_subalgebra"])

    return {
        "consistency": [_Row("consistency", every, o2, partial(_consistency, fault=fault))],
        "hopf": [_Row("hopf", every, o2, on(hopf_axioms))],
        "casimir": [_Row("casimir-centrality", every, o2, on(check_casimir_centrality))],
        "classical": [_Row("classical-limit", null, o2, on(check_classical_limits))],
        "subalgebra": [_Row("hopf-subalgebra", null, o2, on(stability_subalgebra))],
        "qybe": [_Row("qybe", ("sl2", "nullplane"), o3, on(rmat.check_qybe)),
                 _Row("qybe", ("so22",), 2, on(rmat.check_qybe))],
        "intertwine": [_Row("intertwine", r_recipe, o3, on(rmat.check_intertwiner),
                            ("sl2", "nullplane"))],
        "triangular": [_Row("triangular", r_recipe, o2, on(rmat.check_triangularity))],
        "cybe": [_Row("cybe", r_recipe, o2, on(rmat.check_cybe), ("so22", "nullplane"))],
        "cocommutator": [
            _Row("cocommutator", r_recipe, o2, on(rmat.check_cocommutator_link),
                 ("so22", "nullplane")),
            _Row("cocommutator-table", null, o2, on(rmat.check_np_cocommutator_table)),
            _Row("classical-r", r_recipe, o2, on(rmat.check_classical_r))],
        "rfactor": [_Row("r-factorization", ("so22",), o2, on(rmat.check_factorization))],
        "twocopy": [_Row("twocopy", ("so22",), o2, on(cross_check_two_copy))],
        "basischange": [_Row("basis-change", ("sl2-jbasis",), o2, on(check_basis_change))],
        "contraction": [_Row("contraction", null, o2, on(contraction.contract_so22))],
        "matrixrep": [_Row("matrixrep", null, o2, at(repfrt.check_matrix_rep))],
        "matrixr": [_Row("matrix-r", null, o2, on(repfrt.check_matrix_r), min_order=3)],
        "poisson": [_Row("poisson-table", null, o2, at(repfrt.check_poisson_table)),
                    _Row("poisson-jacobi", null, o2, at(repfrt.check_poisson_jacobi))],
        "rtt": [_Row("rtt", null, o2, faulted(repfrt.check_rtt))],
        "weyl": [_Row("weyl", null, o2, faulted(repfrt.check_weyl_correspondence))],
        "groupcoproduct": [_Row("group-coproduct", null, o2,
                                faulted(repfrt.check_group_coproduct))],
        "qplane": [_Row("qplane", null, o2, at(repfrt.check_quantum_plane))],
        "diffrep": [_Row("diffrep", null, o2, on(diffrep.run_diffrep_checks))],
    }


def _run_timed(label, fn, out, budget, order):
    """Run one plan entry; a check that raises becomes one failing report, and
    a report whose own time exceeds the budget fails."""
    name, algebra = label
    t0 = time.monotonic()
    try:
        reports = fn()
    except Exception as e:
        reports = CheckReport(check=name, algebra=algebra, order=order)
        reports.add_failure(type(e).__name__, str(e))
    elapsed = time.monotonic() - t0
    if isinstance(reports, CheckReport):
        reports = [reports]
    # a batch of several reports times each one itself (report.timed_reports);
    # the entry's time outside them, building a preset say, counts in the first
    reports[0].seconds += elapsed - sum(r.seconds for r in reports)
    for r in reports:
        if r.seconds > budget:
            r.add_failure("wall clock", f"exceeded the {budget}s budget ({r.seconds:.1f}s)")
    out.extend(reports)


def _verify_plan(check, algebra, args):
    """A verify verb as ``((label, preset), order, runner)`` entries.

    Without --algebra each row runs on its default presets; with it, a row
    runs on that preset if it accepts it and is skipped otherwise.
    """
    table = _check_table(args.inject_fault)
    if check != "all" and check not in table:
        raise UsageError(f"unknown check {check!r}; choose from "
                         f"all, {', '.join(table)}")
    if algebra and algebra not in PRESET_NAMES:
        raise UsageError(f"unknown preset {algebra!r}")
    rows = [row for verb in (table if check == "all" else (check,))
            for row in table[verb]]
    plan = []
    for row in rows:
        order = max(row.order if args.order is None else args.order, row.min_order)
        presets = row.defaults or row.accepts
        if algebra:
            presets = (algebra,) if algebra in row.accepts else ()
        if presets and hasattr(row.run, "module"):
            # before any row runs: compiled later, on a grown heap, it raises peak memory
            import_module(row.run.module)
        for p in presets:
            plan.append(((row.label, p), order, partial(row.run, p, order)))
    if not plan:
        homes = [p for p in PRESET_NAMES if any(p in row.accepts for row in rows)]
        if len(homes) == 1:
            raise UsageError(f"check {check!r} runs on the {homes[0]} preset only")
        # the checks that take some presets but not all need an R-matrix recipe
        raise UsageError(f"preset {algebra!r} carries no R-matrix recipe; "
                         f"check {check!r} runs on {', '.join(homes)}")
    return plan


def cmd_verify(args):
    plan = _verify_plan(args.check, args.algebra, args)
    reports = []
    for label, order, fn in plan:
        _run_timed(label, fn, reports, args.timeout_secs, order)

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
    terms = {}  # k -> the terms of param^k
    for key, c in elem.terms.items():
        terms.setdefault(key[1], {})[key] = c
    parts = {k: NCElement(alg, terms[k]) for k in sorted(terms)}
    if args.format == "json":
        print(to_json({"param": alg.param,
                       "orders": {k: x.to_dict() for k, x in parts.items()}}))
        return 0
    for k, x in parts.items():
        print(f"{alg.param}^{k}: {render_element(x, args.format)}")
    if not parts:
        print("0")
    return 0


def cmd_show(args):
    what = args.subject
    fmt = args.format
    if what in ("hamiltonian", "brackets") and args.algebra not in (None, "nullplane"):
        raise UsageError(f"show {what} is a null-plane structure; "
                         f"--algebra {args.algebra!r} does not apply")
    if what in ("generators", "brackets") and fmt == "latex":
        raise UsageError(f"show {what} prints text or json, not latex")
    if what == "hamiltonian":
        from . import diffrep
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
        from . import repfrt
        table = repfrt.bracket_table_json()
        if fmt == "json":
            print(json.dumps(table, indent=2, sort_keys=True))
        else:
            for k in sorted(table):
                print(f"{k} = w * ({table[k]})")
        return 0

    bundle = _algebra_for(args)
    alg = bundle.presentation
    gens = alg.generators
    if what == "generators":
        primitive = bundle.hopf.primitive_generators()
        if fmt == "json":
            print(to_json({"param": alg.param, "order": alg.order, "generators": list(gens),
                           "primitive_generators": primitive}))
            return 0
        print(" < ".join(gens))
        print(f"deformation parameter: {alg.param}; truncation order: {alg.order}")
        print("primitive generators:", ", ".join(primitive))
        return 0
    if what == "rmatrix":
        if bundle.rfactors is None:
            raise UsageError(f"preset {args.algebra!r} carries no R-matrix recipe")
        from . import rmat
        print(render_tensor(rmat.preset_r(bundle), fmt))
        return 0
    # the element and tensor subjects: one (label, value) list, printed one way
    if what == "relations":
        entries = [(f"[{gens[j]},{gens[i]}]", alg.gen(j).commutator(alg.gen(i)))
                   for j in range(len(gens)) for i in range(j)]
    elif what == "coproducts":
        entries = [(f"Delta({g})", bundle.hopf.delta[i]) for i, g in enumerate(gens)]
    elif what == "antipodes":
        entries = [(f"gamma({g})", bundle.hopf.antipode[i]) for i, g in enumerate(gens)]
    elif what == "casimirs":
        entries = list(bundle.casimirs.items())
    else:
        raise UsageError(f"unknown subject {what!r}")
    if fmt == "json":
        print(to_json({"param": alg.param, "order": alg.order,
                       "entries": {label: x.to_dict() for label, x in entries}}))
        return 0
    for label, x in entries:
        render = render_tensor if isinstance(x, TensorElement) else render_element
        print(f"{label} = {render(x, fmt)}")
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


def _budget_arg(text):
    """--timeout-secs: a positive, finite number of seconds."""
    try:
        secs = float(text)
    except ValueError:
        secs = 0.0
    if not 0 < secs < math.inf:  # also refuses nan
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds, got {text!r}")
    return secs


def build_parser():
    p = argparse.ArgumentParser(
        prog="hopf-forge",
        description="exact verification engine for non-standard quantum "
                    "deformations of sl(2,R), so(2,2) and the (2+1) null-plane "
                    "Poincare algebra")
    # a string default goes through ``type`` too, unless --order is given
    default_order = os.environ.get("HOPF_FORGE_ORDER") or None

    def add_common(sp, formats=("text", "json"), order_help="default 4"):
        sp.add_argument("--order", type=_order_arg, default=default_order,
                        help=f"truncation order (1..6; {order_help})")
        if formats:
            sp.add_argument("--format", choices=formats, default="text")

    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify", help="run verification checks")
    sp.add_argument("check", help=f"all or one of: {', '.join(_check_table())}")
    sp.add_argument("--algebra",
                    help="run only on this preset, skipping checks that do not accept it")
    sp.add_argument("--timeout-secs", type=_budget_arg, default=DEFAULT_TIMEOUT_SECS,
                    help="per-check wall-clock budget (default 900)")
    sp.add_argument("--inject-fault", choices=sorted(FAULTS),
                    help="testing hook: corrupt one structure and expect failure")
    add_common(sp, order_help="default 4; qybe and intertwine 3, qybe on so22 2; "
                              "matrixr runs at 3 or more")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("normalize", help="normal-order an expression")
    sp.add_argument("expression", nargs="?")
    sp.add_argument("--algebra", required=True)
    add_common(sp, ("text", "json", "latex"))
    sp.set_defaults(fn=cmd_normalize)

    sp = sub.add_parser("expand", help="normal-order and display order by order")
    sp.add_argument("expression", nargs="?")
    sp.add_argument("--algebra", required=True)
    add_common(sp, ("text", "json", "latex"))
    sp.set_defaults(fn=cmd_expand)

    sp = sub.add_parser("show", help="display preset structures")
    sp.add_argument("subject",
                    choices=("generators", "relations", "coproducts", "antipodes",
                             "casimirs", "rmatrix", "hamiltonian", "brackets"))
    sp.add_argument("--algebra")
    add_common(sp, ("text", "json", "latex"),
               order_help="default 4; brackets ignores it, as the Sklyanin table "
                          "is linear in w")
    sp.set_defaults(fn=cmd_show)

    sp = sub.add_parser("preset", help="list presets or describe one")
    sp.add_argument("name", nargs="?")
    add_common(sp, formats=())
    sp.set_defaults(fn=cmd_preset)
    return p


def main(argv=None):
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if getattr(args, "expression", "") is None and len(extra) == 1:
        # argparse reads a space-free expression that starts with "-" as an option
        args.expression, extra = extra[0], []
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    if getattr(args, "expression", "") is None:
        parser.error("the following arguments are required: expression")
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (``| head``): end quietly, and point stdout
        # at devnull so that the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_STDOUT_CLOSED
    except (UsageError, ExpressionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PresetConstructionError as e:
        print(e.report, file=sys.stderr)
        return 1
    except AlgebraError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
