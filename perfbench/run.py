"""hopf-forge benchmark runner.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout and measures the program in ``src``.  Each
measured run of the workload is a fresh child process (child.py); children run
one after another, a closed loop with one client.  Children are started until
the next one would end after ``--seconds``, and at least one runs.

``--trace 0`` prints the end-to-end metrics of untraced children, in
reference seconds: each child runs a speed probe (speed.py) and scales every
interval by the host's speed while it ran.  ``--trace 1`` also runs one
traced child and prints its per-layer metrics instead, with
``trace_overhead_ratio``, the traced wall time over the untraced median, both
as measured; its spans go to ``.bench_out/``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is the full record: every metric, the environment, source line
counts and per-child figures.  A wrong result counts as failed and makes
``correct`` false; it never stops the run.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import per_layer_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "hopf_forge"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("verify-all", "frt", "normalize-stream")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # every child is stopped by then, so a run ends within 180 s

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "requests_per_s": "1/s",
    "latency_p50_ms": "ms", "latency_p99_ms": "ms",
}

# Labels of the verify plan (cli._verify_plan); one cli.<label>_s per label.
CHECK_LABELS = (
    "consistency", "hopf", "casimir-centrality", "classical-limit",
    "hopf-subalgebra", "qybe", "intertwine", "triangular", "cybe",
    "cocommutator", "cocommutator-table", "classical-r", "r-factorization",
    "twocopy", "basis-change", "contraction", "matrixrep", "matrix-r",
    "poisson-table", "poisson-jacobi", "rtt", "weyl", "group-coproduct",
    "qplane", "diffrep",
)


class ChildFailed(RuntimeError):
    pass


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with p% of values at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def load_1min():
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def commit_hash():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines():
    """Physical lines per module of src/hopf_forge, keyed <module>.src_lines."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        with path.open("rb") as f:
            out[f"{path.stem.strip('_')}.src_lines"] = sum(1 for _ in f)
    out["total.src_lines"] = sum(out.values())
    return out


def per_layer_names():
    """Every per-layer metric a traced run reports, with its unit."""
    units = dict(per_layer_units())
    units.update({f"cli.{label}_s": "s" for label in CHECK_LABELS})
    units.update({name: "lines" for name in src_lines()})
    units["trace_overhead_ratio"] = "ratio"
    return units


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("HOPF_FORGE_ORDER", None)
        self.trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"

    def spawn(self, index, trace=False, setup_only=False):
        a = self.args
        spec = {
            "workload": a.workload, "size": a.size, "fault": a.inject_fault,
            "seed": f"{a.seed}:{index}", "trace": trace, "setup_only": setup_only,
            "trace_file": str(self.trace_file), "started": time.perf_counter(),
        }
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired as e:
            raise ChildFailed(f"child {index} passed the {RUN_LIMIT_S}s run limit") from e
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise ChildFailed(f"child {index} exited {proc.returncode}:\n"
                              f"{proc.stderr[-2000:]}")
        return json.loads(lines[-1])

    def measure(self):
        """Untraced children until the next would end after --seconds."""
        children = []
        t_start = time.perf_counter()
        while True:
            t = time.perf_counter()
            children.append(self.spawn(len(children)))
            took = time.perf_counter() - t
            if time.perf_counter() - t_start + took > self.args.seconds:
                return children


def end_to_end(children, setups):
    """Medians over children, except p99, which needs every latency of the run."""
    def median(f):
        return statistics.median(f(c) for c in children)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": median(lambda c: c["wall_s"]),
        "peak_rss_mb": median(lambda c: c["peak_rss_mb"]),
        "requests_per_s": median(lambda c: len(c["latencies"]) / sum(c["latencies"])),
        "latency_p50_ms": median(lambda c: 1000 * percentile(c["latencies"], 50)),
        "latency_p99_ms": 1000 * percentile(
            [x for c in children for x in c["latencies"]], 99),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: order 2 and a few dozen requests, for the "
                        "benchmark's own tests")
    p.add_argument("--inject-fault", default=None,
                   help="gate self-test: a hopf-forge --inject-fault name for "
                        "the verify workloads, 'stream-answer' for "
                        "normalize-stream")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "__init__.py").is_file():
        print(f"error: no hopf-forge sources at {SRC}", file=sys.stderr)
        return 2
    env = {
        "python": platform.python_version(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "loadavg_1min_start": load_1min(),
        "commit": commit_hash(),
    }
    stream = args.workload == "normalize-stream"
    if args.inject_fault and (args.inject_fault == "stream-answer") != stream:
        print("error: 'stream-answer' is the only fault of normalize-stream, "
              "and it applies to no other workload", file=sys.stderr)
        return 2
    runner = Runner(args)
    try:
        children = runner.measure()
        setups = [c["setup_s"] for c in children]
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.spawn(len(setups), setup_only=True)["setup_s"])
        traced = runner.spawn(len(children), trace=True) if args.trace else None
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    env["loadavg_1min_end"] = load_1min()

    e2e = end_to_end(children, setups)
    ran = children + ([traced] if traced else [])
    attempted = sum(c["attempted"] for c in ran)
    failed = sum(c["failed"] for c in ran)
    lines = src_lines()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "trace": args.trace, "inject_fault": args.inject_fault,
        "env": env, "src_lines": lines, "fail_ratio": failed / attempted,
        "end_to_end": e2e, "setup_samples": setups,
        "children": [{k: c[k] for k in ("wall_s", "wall_raw_s", "setup_s",
                                        "setup_raw_s", "peak_rss_mb",
                                        "attempted", "failed")} for c in ran],
    }
    metrics, units = e2e, END_TO_END
    if traced:
        units = per_layer_names()
        layers = dict.fromkeys(units, 0.0)
        layers.update(traced["layers"])
        layers.update(lines)
        layers["trace_overhead_ratio"] = traced["wall_raw_s"] / statistics.median(
            c["wall_raw_s"] for c in children)
        metrics = record["per_layer"] = {name: layers[name] for name in units}
        record["trace_file"] = str(runner.trace_file.relative_to(ROOT))
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
