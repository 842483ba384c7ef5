"""One measured process: set up, run one workload once, check it, report.

Started by run.py as ``python3 perfbench/child.py '<json spec>'``; prints one
JSON object on its last stdout line.  Each run of a workload is a fresh
process, so caches start as set-up leaves them.

An untraced child runs a speed probe (speed.py) from its start to its end and
reports its times at the reference speed, with the probe's own time taken
out; ``*_raw_s`` are the same intervals as measured, probe time taken out.  A
traced child runs no probe; its times are as measured.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class NoProbe:
    """The interface of speed.SpeedProbe for a child that runs no probe."""

    def raw(self, a, b):
        return b - a

    normalized = raw

    def stop(self):
        pass


def main():
    spec = json.loads(sys.argv[1])
    if spec["trace"]:
        probe = NoProbe()
    else:
        from speed import SpeedProbe
        probe = SpeedProbe().start()
    sys.path.insert(0, str(ROOT / "src"))
    import hopf_forge

    if Path(hopf_forge.__file__).resolve().parent != ROOT / "src" / "hopf_forge":
        sys.exit(f"hopf_forge imported from {hopf_forge.__file__}, not this checkout")
    import workloads

    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.start()
    state = workloads.setup(spec["workload"], spec["size"])
    # From process start, which run.py takes just before it starts the child
    # (perf_counter is the system-wide monotonic clock on Linux), to presets built.
    t0 = time.perf_counter()
    report = {"setup_s": probe.normalized(spec["started"], t0),
              "setup_raw_s": probe.raw(spec["started"], t0)}
    if not spec["setup_only"]:
        outcome = workloads.run(spec["workload"], spec["size"], spec["seed"],
                                spec["fault"], state)
        if tracer is not None:  # the layer figures cover the workload, not the gate
            tracer.stop()
            report["layers"] = tracer.metrics()
        failed = outcome.check()
    t1 = time.perf_counter()
    probe.stop()
    if not spec["setup_only"]:
        report.update(
            failed=failed,
            attempted=outcome.attempted,
            wall_s=probe.normalized(t0, t1),
            wall_raw_s=probe.raw(t0, t1),
            latencies=[probe.normalized(a, b) for a, b in outcome.spans],
        )
        if tracer is not None:
            tracer.write(spec["trace_file"])
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))


if __name__ == "__main__":
    main()
