"""The benchmark's workloads: their set-up, their timed work and their output gate.

Runs inside a child process (see child.py) with the checkout's ``src`` on
``sys.path``.  Only public entry points of hopf-forge are driven:
``cli.main``, ``algebras.preset`` and ``expr.parse_to_element`` /
``render_element``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

# Called through their modules, so that the tracer's wrappers are seen.
from hopf_forge import algebras, cli, expr

# "full" is what the benchmark measures; "smoke" exercises every path of the
# harness in seconds, for the benchmark's own tests.
SIZES = {
    "full": {"order": None, "catalogue": 500},
    "smoke": {"order": 2, "catalogue": 24},
}

FRT_CHECKS = ("poisson", "rtt", "weyl", "groupcoproduct", "qplane", "diffrep")
FRT_ORDER = 4
STREAM_PRESETS = ("sl2", "nullplane", "so22")
STREAM_ORDER = 4

# Fault that corrupts one stream answer after it is computed; the verify
# workloads take the program's own --inject-fault names instead.
STREAM_FAULT = "stream-answer"

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


def verify_presets(workload, size):
    """(preset, order) pairs the verify plan builds, constructed during set-up."""
    order = SIZES[size]["order"]
    if workload == "frt":
        return [("nullplane", order or FRT_ORDER)]
    if order is not None:
        return [(name, order) for name in algebras.PRESET_NAMES]
    # the default plan: two-fold checks at 4, three-fold at 3, so22 QYBE at 2
    return ([(name, cli.DEFAULT_ORDER_2FOLD) for name in algebras.PRESET_NAMES]
            + [("sl2", cli.DEFAULT_ORDER_3FOLD),
               ("nullplane", cli.DEFAULT_ORDER_3FOLD), ("so22", 2)])


def setup(workload, size):
    """Build the presets the workload uses; returns what ``run`` needs."""
    if workload == "normalize-stream":
        order = SIZES[size]["order"] or STREAM_ORDER
        return {name: algebras.preset(name, order).presentation
                for name in STREAM_PRESETS}
    for name, order in verify_presets(workload, size):
        algebras.preset(name, order)
    return None


@dataclass
class Outcome:
    """What one child measured; ``check()`` then counts its wrong results."""

    attempted: int
    spans: list  # (start, end) of each request, in time.perf_counter() seconds
    check: Callable[[], int]


# -- verify workloads -----------------------------------------------------------

def verify_commands(workload, size, fault):
    order = SIZES[size]["order"]
    extra = ["--format", "json"]
    if fault:
        extra += ["--inject-fault", fault]
    if workload == "verify-all":
        return [["verify", "all"] + (["--order", str(order)] if order else []) + extra]
    return [["verify", check, "--order", str(order or FRT_ORDER)] + extra
            for check in FRT_CHECKS]


def run_verify(workload, size, fault):
    """One request: the workload's verify commands, back to back.

    A single frt command is too short (0.1 s for rtt) to time steadily on a
    shared machine, so the request is the whole session; for verify-all it
    is one command.
    """
    got = []
    t = time.perf_counter()
    for argv in verify_commands(workload, size, fault):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                cli.main(argv)
            checks = json.loads(buf.getvalue())["checks"]
        except Exception:  # a crash or an unreadable report fails its checks
            continue
        got += [(c["check"], c["algebra"], c["order"], c["status"] == "pass")
                for c in checks]
    spans = [(t, time.perf_counter())]
    expected = [tuple(e) for e in EXPECTED[f"{workload}/{size}"]]

    def check():
        """Reports missing from, or extra to, the expected plan."""
        missing = Counter(expected) - Counter(got)
        extra = Counter(got) - Counter(expected)
        return min(len(expected), max(sum(missing.values()), sum(extra.values())))

    return Outcome(len(expected), spans, check)


# -- normalize-stream ---------------------------------------------------------

CATALOGUE_SEED = 0
EXP_SHARE = 0.002
EXP_COEFFS = ("1", "-1", "2", "-2", "1/2", "-3/2")


def catalogue(presentations, n_products):
    """The distinct products the stream draws on, the same for every seed.

    Products of 2-5 generators, an equal number per preset, with
    ``EXP_SHARE`` of each preset's factors (at least one) replaced by
    ``exp(c*param*G)``; returned as (preset, text).  The normal-form cost of
    these words is heavy-tailed (a few so22 and sl2 words with an exp factor
    take seconds, the median well under a millisecond), and the cost of an
    exp word depends on its coefficient, so a catalogue or coefficients
    drawn per seed made throughput and p99 vary several-fold between seeds;
    a fixed catalogue keeps the same tail in every run.
    """
    rng = random.Random(CATALOGUE_SEED)
    products = []
    for i in range(n_products):
        name = STREAM_PRESETS[i % len(STREAM_PRESETS)]
        gens = presentations[name].generators
        products.append((name, [rng.choice(gens) for _ in range(rng.randint(2, 5))]))
    for name in STREAM_PRESETS:
        slots = [(i, k) for i, (p, factors) in enumerate(products) if p == name
                 for k in range(len(factors))]
        for i, k in rng.sample(slots, max(1, round(EXP_SHARE * len(slots)))):
            factors, param = products[i][1], presentations[name].param
            factors[k] = f"exp({rng.choice(EXP_COEFFS)}*{param}*{factors[k]})"
    return [(name, "*".join(factors)) for name, factors in products]


def make_stream(seed, presentations, n_products):
    """Requests (preset, text): every catalogue product twice, the second time
    as a repeat of a request already sent, in an order drawn from the seed."""
    rng = random.Random(seed)
    texts = catalogue(presentations, n_products)
    order = list(range(len(texts))) * 2
    rng.shuffle(order)
    return [texts[i] for i in order]


def run_stream(presentations, size, seed, fault):
    stream = make_stream(seed, presentations, SIZES[size]["catalogue"])
    spans, answers = [], []
    for name, text in stream:
        t = time.perf_counter()
        try:
            elem = expr.parse_to_element(text, presentations[name])
            answers.append((name, elem, expr.render_element(elem)))
        except Exception:  # a request that raises is a failed request
            answers.append(None)
        spans.append((t, time.perf_counter()))
    if fault == STREAM_FAULT:
        name, elem, rendered = answers[0]
        answers[0] = (name, elem, rendered + " + 1")

    def check():
        """Requests that raised or whose rendering parses to another element."""
        failed = 0
        for answer in answers:
            try:
                name, elem, rendered = answer
                failed += expr.parse_to_element(rendered, presentations[name]) != elem
            except Exception:  # no answer, or one that does not parse back
                failed += 1
        return failed

    return Outcome(len(stream), spans, check)


def run(workload, size, seed, fault, state):
    """Run the workload once; the returned outcome's ``check()`` is the gate."""
    if workload == "normalize-stream":
        return run_stream(state, size, seed, fault)
    return run_verify(workload, size, fault)
