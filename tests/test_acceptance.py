"""Acceptance suite: one test per criterion, exact (zero-residual) tolerances.

Every criterion prints a PASS/FAIL line with its runtime; the stated wall-clock
budgets are asserted as well.  Orders follow the criteria: 2-fold tensor checks
at N = 4, three-fold Yang-Baxter checks at N = 3 (so(2,2) at N = 2).
"""

import json
import subprocess
import sys
import time

import pytest

from hopf_forge.algebras import (check_basis_change, check_casimir_centrality,
                                 check_classical_limits, cross_check_two_copy,
                                 preset)
from hopf_forge.coeff import FE_ONE
from hopf_forge.contraction import contract_so22
from hopf_forge import diffrep, repfrt, rmat

from test_golden import GOLDEN, strip_seconds, verify_argv, verify_golden_name

PRESETS = ("sl2", "so22", "nullplane", "sl2-jbasis")


def _criterion(number, label, budget_secs, reports):
    elapsed = sum(r.seconds for r in reports if r.seconds)
    failed = [r for r in reports if not r.passed]
    status = "FAIL" if failed else "PASS"
    print(f"ACCEPTANCE {number:2d} {status} {label} "
          f"({len(reports)} checks, {elapsed:.1f}s budget {budget_secs}s)")
    for r in failed:
        print(f"  {r}")
    assert not failed, f"criterion {number}: {[str(r) for r in failed]}"
    assert elapsed < budget_secs, f"criterion {number} exceeded {budget_secs}s"


def _timed(fn, *args):
    t0 = time.monotonic()
    out = fn(*args)
    reports = out if isinstance(out, list) else [out]
    for r in reports:
        if not r.seconds:
            r.seconds = (time.monotonic() - t0) / len(reports)
    return reports


def test_criterion_01_preset_consistency():
    reports = []
    for name in PRESETS:
        reports += _timed(lambda n=name: preset(n, 4).presentation.consistency_check())
    _criterion(1, "preset consistency at N=4", 60, reports)


def test_criterion_02_hopf_axioms():
    reports = []
    for name in PRESETS:
        reports += _timed(lambda n=name: preset(n, 4).hopf.run_all_checks())
    _criterion(2, "Hopf axioms on generators and degree-2 words at N=4", 300, reports)


def test_criterion_03_casimir_centrality():
    reports = []
    for name in PRESETS:
        reports += _timed(check_casimir_centrality, preset(name, 4))
    _criterion(3, "Casimir centrality at N=4", 300, reports)


def test_criterion_04_classical_limits():
    reports = _timed(check_classical_limits, preset("nullplane", 4))
    _criterion(4, "w->0 limits of brackets and Casimirs", 10, reports)


def test_criterion_05_qybe():
    reports = _timed(rmat.check_qybe, preset("sl2", 3))
    reports += _timed(rmat.check_qybe, preset("nullplane", 3))
    reports += _timed(rmat.check_qybe, preset("so22", 2))
    _criterion(5, "quantum Yang-Baxter residuals", 900, reports)


def test_criterion_06_intertwining():
    reports = _timed(rmat.check_intertwiner, preset("sl2", 3))
    reports += _timed(rmat.check_intertwiner, preset("nullplane", 3))
    _criterion(6, "coproduct intertwining at N=3", 600, reports)


def test_criterion_07_triangularity():
    reports = []
    for name in ("sl2", "so22", "nullplane"):
        reports += _timed(rmat.check_triangularity, preset(name, 4))
    _criterion(7, "triangularity flip(R)R = 1 at N=4", 300, reports)


def test_criterion_08_classical_r_cybe_cocommutators():
    reports = []
    for name in ("so22", "nullplane"):
        reports += _timed(rmat.check_classical_r, preset(name, 4))
        reports += _timed(rmat.check_cybe, preset(name, 4))
        reports += _timed(rmat.check_cocommutator_link, preset(name, 4))
    reports += _timed(rmat.check_np_cocommutator_table, preset("nullplane", 4))
    _criterion(8, "classical r, CYBE and cocommutator tables", 30, reports)


def test_criterion_09_contraction():
    reports = _timed(contract_so22, preset("nullplane", 4))
    _criterion(9, "so(2,2) -> null-plane contraction at N=4", 300, reports)


def test_criterion_10_matrix_sector():
    reports = _timed(repfrt.check_matrix_rep, 4)
    reports += _timed(repfrt.check_matrix_r, preset("nullplane", 4))
    _criterion(10, "matrix representation and matrix Yang-Baxter", 10, reports)


def test_criterion_11_poisson_sector():
    reports = _timed(repfrt.check_poisson_table, 4)
    reports += _timed(repfrt.check_poisson_jacobi, 4)
    _criterion(11, "Sklyanin brackets and Jacobi modulo the ideal", 300, reports)


def test_criterion_12_frt_sector():
    reports = _timed(repfrt.check_rtt, 4)
    reports += _timed(repfrt.check_weyl_correspondence, 4)
    reports += _timed(repfrt.check_group_coproduct, 4)
    reports += _timed(repfrt.check_quantum_plane, 4)
    _criterion(12, "RTT, Weyl correspondence, group coproduct, quantum plane",
               900, reports)


def test_criterion_13_differential_representation():
    reports = _timed(diffrep.run_diffrep_checks, preset("nullplane", 4))
    _criterion(13, "differential representation at N=4", 300, reports)


def _golden(fault):
    return json.loads((GOLDEN / verify_golden_name(fault)).read_text())


def test_criterion_14_cli_contract():
    t0 = time.monotonic()
    cli = [sys.executable, "-m", "hopf_forge"]
    ok = subprocess.run(cli + verify_argv(None), capture_output=True, text=True)
    assert ok.returncode == 0, ok.stdout + ok.stderr
    doc = json.loads(ok.stdout)
    assert doc["reportVersion"] == 1 and doc["status"] == "pass"
    assert strip_seconds(doc) == _golden(None)

    from hopf_forge.algebras import FAULTS
    for fault in sorted(FAULTS):
        r = subprocess.run(cli + verify_argv(fault), capture_output=True, text=True)
        assert r.returncode == 1, f"fault {fault} did not fail"
        doc = json.loads(r.stdout)
        assert doc["status"] == "fail"
        assert any(c["status"] == "fail" for c in doc["checks"]), \
            f"fault {fault} names no failing check"
        assert strip_seconds(doc) == _golden(fault), f"fault {fault}"

    # parse/render round trip over the full preset vocabulary
    from hopf_forge.expr import parse_to_element, render_element
    from hopf_forge.ncalg import NCElement
    for name in PRESETS:
        bundle = preset(name, 3)
        alg = bundle.presentation
        elems = [alg.gen(g) for g in alg.generators]
        elems += list(bundle.casimirs.values())
        for i in range(len(alg.generators)):
            for ws, _ in bundle.hopf.delta[i].terms:
                for w in ws:
                    elems.append(NCElement(alg, {(w, 0): FE_ONE}))
        for x in elems:
            assert parse_to_element(render_element(x, "text"), alg) == x

    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE 14 PASS CLI contract, faults and round trip "
          f"({elapsed:.1f}s budget 1200s)")
    assert elapsed < 1200
