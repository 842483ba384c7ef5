"""Tests of the benchmark harness itself, on the smoke size (order 2, a few
dozen stream requests).  Run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def results(proc):
    assert proc.returncode == 0, proc.stderr
    *_, record, last = proc.stdout.strip().splitlines()
    return json.loads(record), json.loads(last)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    record, last = results(bench("--workload", workload, "--size", "smoke"))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert record["fail_ratio"] == 0.0
    assert set(record["env"]) == {"python", "gmpy2", "nproc", "loadavg_1min_start",
                                  "loadavg_1min_end", "commit"}
    assert record["src_lines"]["ncalg.src_lines"] > 0


def test_traced_run_reports_every_per_layer_metric():
    record, last = results(bench("--workload", "verify-all", "--size", "smoke",
                                 "--trace", "1"))
    assert last["correct"]
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == want
    m = {k: v["value"] for k, v in last["metrics"].items()}
    assert m["trace_overhead_ratio"] > 0
    assert m["coeff.series_mul_calls"] > 0 and m["ncalg.nf_calls"] > m["ncalg.nf_misses"] > 0
    assert m["cli.hopf_s"] > 0 and m["hopf.busy_s"] > 0 and m["ratfunc.groebner_s"] > 0
    trace = json.loads((ROOT / record["trace_file"]).read_text())
    ids = {s["id"] for s in trace["spans"]}
    assert all(s["parent"] is None or s["parent"] in ids for s in trace["spans"])


@pytest.mark.parametrize("workload,fault", [("verify-all", "ncalg-rule"),
                                            ("normalize-stream", "stream-answer")])
def test_gate_catches_a_wrong_answer(workload, fault):
    record, last = results(bench("--workload", workload, "--size", "smoke",
                                 "--inject-fault", fault))
    assert record["fail_ratio"] > 0
    assert not last["correct"] and last["failed"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "frt", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_stream_is_seeded_and_repeats_each_product_once():
    from hopf_forge import preset
    pres = {n: preset(n, 2).presentation for n in workloads.STREAM_PRESETS}
    a = workloads.make_stream("7:0", pres, 30)
    assert a == workloads.make_stream("7:0", pres, 30)
    assert a != workloads.make_stream("8:0", pres, 30)
    assert len(a) == 60 and all(n % 2 == 0 for n in Counter(a).values())
    exp_presets = {name for name, text in a if "exp(" in text}
    assert exp_presets == set(workloads.STREAM_PRESETS)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 99) == 99
    assert run.percentile([5.0], 99) == 5.0


def test_speed_probe_takes_out_its_own_time():
    import time

    from speed import SpeedProbe
    probe = SpeedProbe().start()
    a = time.perf_counter()
    while time.perf_counter() - a < 0.3:
        sum(range(1000))
    b = time.perf_counter()
    probe.stop()
    assert 0 < probe.raw(a, b) < b - a
    assert probe.normalized(a, b) > 0
    assert probe.raw(b, b + 1) == 1  # no probe ran after stop()
