"""Machine-speed probe for one benchmark child process.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same pure-Python work takes 20-40% more or less time from one second or
minute to the next, CPU time included (the host reports no steal time, so the
work itself runs slower), and the drift does not average out over a run.  So
the child measures the host's speed while the workload runs: every
``PERIOD_S`` of wall time a ``SIGALRM`` handler runs a fixed kernel of
``fractions`` and dict/tuple arithmetic (the operations the program spends its
time in) and times it.  The kernel is the benchmark's own code, never the
program's, so a change to the program does not change it.

``normalized(a, b)`` turns an interval of ``time.perf_counter()`` into
seconds at the reference speed: it takes out the time the probe itself ran in
the interval, then divides each ``CHUNK_S`` of what is left by the local speed
factor, the mean kernel time of the samples within ``WINDOW_S`` of that chunk
over ``REF_SAMPLE_S``.  A host 25% slower than the reference has factor 1.25.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.01
CHUNK_S = 0.05
WINDOW_S = 0.02
# Median kernel time on the machine the benchmark was written on: a 2-vCPU
# x86-64 VM (Intel Xeon, 2.1 GHz), CPython 3.11.  Only ratios of normalised
# times are compared, so the value sets the scale of the figures, not their
# spread.
REF_SAMPLE_S = 0.0007
WARMUP_SAMPLES = 5


def kernel():
    """Fixed work of under a millisecond: Fraction sums and products,
    tuple keys and dict updates."""
    acc = {}
    x = Fraction(0)
    for i in range(1, 120):
        key = (i % 7, i % 5, i % 3)
        x += Fraction(i % 13 + 1, i % 11 + 1) * Fraction(1, i % 4 + 2)
        acc[key] = acc.get(key, 0) + i
        acc[key[::-1]] = len(acc)
    return x, acc


class SpeedProbe:
    """Samples the host's speed every ``PERIOD_S`` from ``start()`` to ``stop()``."""

    def __init__(self):
        self._runs = []       # start of every probe run, warm-up included
        self._spent = [0.0]   # prefix sums of the seconds each run took
        self._at = []         # start of every timed sample
        self._took = [0.0]    # prefix sums of the kernel seconds of each sample

    def start(self):
        for i in range(WARMUP_SAMPLES):
            self._sample(timed=i > 0)  # the first run is cold
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_alarm(self, signum, frame):
        self._sample()

    def _sample(self, timed=True):
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's objects is not host speed
        t = time.perf_counter()
        kernel()
        took = time.perf_counter() - t
        if enabled:
            gc.enable()
        if timed:
            self._at.append(t)
            self._took.append(self._took[-1] + took)
        self._runs.append(t)
        # the handler's own cost too, not only the kernel's
        self._spent.append(self._spent[-1] + time.perf_counter() - t)

    def raw(self, a, b):
        """Seconds of [a, b) not spent in the probe.  A probe run starts and
        ends between two bytecodes of the workload, so it lies wholly inside
        any interval its start lies in."""
        i, j = bisect.bisect_left(self._runs, a), bisect.bisect_left(self._runs, b)
        return b - a - (self._spent[j] - self._spent[i])

    def factor(self, a, b):
        """Mean kernel time of the samples started within ``WINDOW_S`` of
        [a, b), over the reference; if there are none, the last sample's
        before the window (the first sample's if the window precedes all)."""
        n = len(self._at)
        i = bisect.bisect_left(self._at, a - WINDOW_S)
        j = bisect.bisect_left(self._at, b + WINDOW_S)
        if j == i:
            i = min(max(i - 1, 0), n - 1)
            j = i + 1
        return (self._took[j] - self._took[i]) / (j - i) / REF_SAMPLE_S

    def normalized(self, a, b):
        """Seconds of [a, b) outside the probe, at the reference speed."""
        total = 0.0
        while a < b:
            end = min(b, a + CHUNK_S)
            total += self.raw(a, end) / self.factor(a, end)
            a = end
        return total
