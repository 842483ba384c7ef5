"""Golden outputs: the `normalize`, `expand`, `show` and `preset` commands on a
fixed corpus, `verify all --order 2 --format json` with and without each
fault hook, `verify contraction` and `verify diffrep --format json` at orders
3 and 4 (with no fault and with each fault that changes their output),
`verify hopf --format json` at orders 3, 4 and 6 (with no fault and under the
``hopf-coproduct`` and ``ncalg-rule`` faults), the default-plan
`verify all --format json` (orders 4/3/2, no fault), the
contraction reports at order 2 under each single-generator change of an eps
weight by +-1 (every one of them fails, so the pole messages and residuals
are pinned), and the reduced Groebner basis of the Lorentz orthogonality
ideal must stay byte-identical to the files under ``tests/golden/``.

The corpus, the contraction, diffrep, Hopf and default-plan verify runs and
the weight changes run in-process; the `verify all` goldens are compared by acceptance
criterion 14, which runs those subprocesses anyway, and once more in one process,
each faulted run followed by a fault-free one, so that no fault leaks into a later run.  The order-6 Hopf runs
(about 1.5 s each) are compared by CI, not by the test suite::

    PYTHONPATH=src python tests/test_golden.py --check-hopf-order6

``--write`` rewrites every one of these files from the code on ``PYTHONPATH``
(only when a change of output is intended)::

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from hopf_forge import cli
from hopf_forge.algebras import FAULTS, PRESET_NAMES, preset

GOLDEN = Path(__file__).parent / "golden"

# {a}, {b}, {c}, {d}: generators (first, second, last, middle); {p}: parameter
EXPRESSIONS = (
    "7",
    "-2/3",
    "-{p}*{b} + 1",
    "{c}*{a}",
    "{a} + {p}*{a}",
    "{a} - {a}",
    "3*{b}^2 - 1/2*{a}*{c}",
    "sqrt2*{a} + {p}*{b} - 5/7*{p}^2*{d}",
    "(sqrt2*{a} + {c})^2",
    "{c}*{b}*{a} - {a}*{b}*{c}",
    "({c} - {p}*{a})^3",
    "{p}^2*{c}*{d}*{a} + 2/3",
    "exp({p}*{a})*{c}",
    "exp(-2*{p}*{a} + 1/3*{p}*{b})",
    "{c}*exp(sqrt2*{p}*{d}) - exp(1/2*{p}^2*{c})",
    "{d}^3*{a}^2 - {c}^2*{b}",
)
CORPUS_ORDERS = (2, 4)
SHOW_SUBJECTS = ("relations", "coproducts", "antipodes", "casimirs", "rmatrix")
SHOW_FORMATS = ("text", "json", "latex")
SHOW_ORDER = 3
HAMILTONIAN_ORDERS = (1, 2, 3, 4, 5, 6)
# the J-basis structure and the so(2,2) Casimirs at the orders no verify
# default reaches
DEEP_SHOWS = (("sl2-jbasis", ("relations", "coproducts", "antipodes", "casimirs")),
              ("so22", ("casimirs",)))
DEEP_SHOW_ORDERS = (5, 6)


def _expressions(name):
    from hopf_forge.algebras import preset
    alg = preset(name, 2).presentation
    g = alg.generators
    fill = {"a": g[0], "b": g[1], "c": g[-1], "d": g[len(g) // 2], "p": alg.param}
    return [e.format(**fill) for e in EXPRESSIONS]


def corpus_commands():
    """Every command line of the corpus, in a fixed order."""
    out = [["preset"]]
    for name in PRESET_NAMES:
        out.append(["preset", name])
        out.append(["preset", name, "--order", "2"])
        for order in CORPUS_ORDERS:
            for text in _expressions(name):
                for verb in ("normalize", "expand"):
                    for fmt in ("text", "json", "latex"):
                        out.append([verb, "--algebra", name, "--order", str(order),
                                    "--format", fmt, "--", text])
        for subject in SHOW_SUBJECTS:
            for fmt in SHOW_FORMATS:
                out.append(["show", subject, "--algebra", name,
                            "--order", str(SHOW_ORDER), "--format", fmt])
    # the preset-free subjects: the diffrep Hamiltonian and the Sklyanin brackets
    for order in HAMILTONIAN_ORDERS:
        for fmt in ("text", "json", "latex"):
            out.append(["show", "hamiltonian", "--order", str(order), "--format", fmt])
    for fmt in ("text", "json"):
        out.append(["show", "brackets", "--format", fmt])
    for name, subjects in DEEP_SHOWS:
        for subject in subjects:
            for order in DEEP_SHOW_ORDERS:
                for fmt in SHOW_FORMATS:
                    out.append(["show", subject, "--algebra", name,
                                "--order", str(order), "--format", fmt])
    return out


def run_in_process(argv):
    """(exit code, stdout) of one command."""
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, buf.getvalue()


def corpus_outputs(commands):
    return {" ".join(argv): list(run_in_process(argv)) for argv in commands}


def _corpus_file(subject):
    return GOLDEN / f"corpus-{subject}.json"


def _split(commands):
    """Commands by golden file: one per command verb."""
    parts = {}
    for argv in commands:
        parts.setdefault(argv[0], []).append(argv)
    return parts


def verify_golden_name(fault):
    return f"verify-order2-{fault or 'nofault'}.json"


def verify_argv(fault):
    argv = ["verify", "all", "--order", "2", "--format", "json"]
    return argv + (["--inject-fault", fault] if fault else [])


def strip_seconds(doc):
    """A verify report without its run-dependent ``seconds`` fields."""
    for check in doc["checks"]:
        check.pop("seconds", None)
    return doc


# faults whose output differs from the fault-free run of that verb
REACHING_FAULTS = {
    "contraction": ("algebras-casimir", "hopf-coproduct", "ncalg-rule"),
    "diffrep": tuple(sorted(FAULTS)),
}
VERB_ORDERS = ("3", "4")
VERB_GOLDEN = GOLDEN / "verify-contraction-diffrep.json"


def verb_commands():
    out = []
    for verb, faults in REACHING_FAULTS.items():
        for order in VERB_ORDERS:
            for fault in (None, *faults):
                out.append(["verify", verb, "--order", order, "--format", "json"]
                           + (["--inject-fault", fault] if fault else []))
    return out


def verb_outputs(commands=None):
    """Exit code and report (without ``seconds``) of every verb command."""
    out = {}
    for argv in commands or verb_commands():
        code, text = run_in_process(argv)
        out[" ".join(argv)] = [code, strip_seconds(json.loads(text))]
    return out


# the default plan (orders 4/3/2) and the Hopf rows at orders 3 and 4: the
# orders past the order-2 goldens that every kernel change must leave alone
DEFAULT_ARGV = ["verify", "all", "--format", "json"]
DEFAULT_GOLDEN = GOLDEN / "verify-default-nofault.json"
HOPF_FAULTS = ("hopf-coproduct", "ncalg-rule")
HOPF_GOLDEN = GOLDEN / "verify-hopf-orders34.json"
HOPF6_GOLDEN = GOLDEN / "verify-hopf-order6.json"


def hopf_commands(orders=VERB_ORDERS):
    return [["verify", "hopf", "--order", order, "--format", "json"]
            + (["--inject-fault", fault] if fault else [])
            for order in orders for fault in (None, *HOPF_FAULTS)]


WEIGHTS_GOLDEN = GOLDEN / "contraction-weights-order2.json"


def weight_change_reports():
    """``contract_so22(2)`` without ``seconds`` under each change ``d -> d +- 1``
    of one generator's eps weight in ``CONTRACTION_MAP``."""
    from hopf_forge import contraction
    original = contraction.CONTRACTION_MAP
    out = {}
    try:
        for name, (so_name, d, c) in original.items():
            for step in (-1, 1):
                contraction.CONTRACTION_MAP = {**original, name: (so_name, d + step, c)}
                reports = [r.to_dict() for r in contraction.contract_so22(preset("nullplane", 2))]
                for r in reports:
                    r.pop("seconds", None)
                out[f"{name} {d + step:+d}"] = reports
    finally:
        contraction.CONTRACTION_MAP = original
    return out


BASIS_GOLDEN = GOLDEN / "orthogonality-groebner.json"


def basis_doc():
    """``repfrt.orthogonality_groebner()`` in basis order: each member a list of
    ``[exponents, a, b]`` terms (coefficient a + b*sqrt2), leading term first."""
    from hopf_forge.repfrt import COORD_NAMES, orthogonality_groebner
    basis = [{p.ring.unpack(m): c for m, c in p.terms.items()}
             for p in orthogonality_groebner()]
    return {"vars": list(COORD_NAMES),
            "basis": [[[list(e), str(terms[e].a), str(terms[e].b)]
                       for e in sorted(terms, key=lambda e: (sum(e), e), reverse=True)]
                      for terms in basis]}


def _write():
    GOLDEN.mkdir(exist_ok=True)
    BASIS_GOLDEN.write_text(json.dumps(basis_doc()) + "\n")
    for path, doc in ((VERB_GOLDEN, verb_outputs()),
                      (HOPF_GOLDEN, verb_outputs(hopf_commands())),
                      (HOPF6_GOLDEN, verb_outputs(hopf_commands(("6",)))),
                      (DEFAULT_GOLDEN, strip_seconds(json.loads(run_in_process(DEFAULT_ARGV)[1]))),
                      (WEIGHTS_GOLDEN, weight_change_reports())):
        path.write_text(json.dumps(doc, indent=1, sort_keys=True, ensure_ascii=False) + "\n")
    for subject, commands in _split(corpus_commands()).items():
        _corpus_file(subject).write_text(
            json.dumps(corpus_outputs(commands), indent=1, ensure_ascii=False) + "\n")
    for fault in (None, *sorted(FAULTS)):
        r = subprocess.run([sys.executable, "-m", "hopf_forge", *verify_argv(fault)],
                           capture_output=True, text=True, check=False)
        doc = strip_seconds(json.loads(r.stdout))
        (GOLDEN / verify_golden_name(fault)).write_text(
            json.dumps(doc, indent=1, sort_keys=True, ensure_ascii=False) + "\n")


@pytest.mark.parametrize("subject", sorted(_split(corpus_commands())))
def test_corpus_output_is_golden(subject):
    commands = _split(corpus_commands())[subject]
    want = json.loads(_corpus_file(subject).read_text())
    got = corpus_outputs(commands)
    assert list(got) == list(want)
    for line, out in got.items():
        assert out == want[line], line


def test_contraction_and_diffrep_verify_are_golden():
    want = json.loads(VERB_GOLDEN.read_text())
    got = verb_outputs()
    assert sorted(got) == sorted(want)
    for line, out in got.items():
        assert out == want[line], line


def test_hopf_verify_at_orders_3_and_4_is_golden():
    want = json.loads(HOPF_GOLDEN.read_text())
    got = verb_outputs(hopf_commands())
    assert sorted(got) == sorted(want)
    for line, out in got.items():
        assert out == want[line], line


def test_default_verify_plan_is_golden():
    code, text = run_in_process(DEFAULT_ARGV)
    assert code == 0
    assert strip_seconds(json.loads(text)) == json.loads(DEFAULT_GOLDEN.read_text())


def test_no_fault_leaks_into_the_next_run_in_one_process():
    clean = json.loads((GOLDEN / verify_golden_name(None)).read_text())
    for fault in sorted(FAULTS):
        code, text = run_in_process(verify_argv(fault))
        want = json.loads((GOLDEN / verify_golden_name(fault)).read_text())
        assert (code, strip_seconds(json.loads(text))) == (1, want), fault
        code, text = run_in_process(verify_argv(None))
        assert (code, strip_seconds(json.loads(text))) == (0, clean), f"after {fault}"


def test_contraction_under_weight_changes_is_golden():
    want = json.loads(WEIGHTS_GOLDEN.read_text())
    got = weight_change_reports()
    assert sorted(got) == sorted(want)
    for label, reports in got.items():
        assert all(r["status"] == "fail" for r in reports), label
        assert reports == want[label], label


def test_orthogonality_groebner_is_golden():
    assert basis_doc() == json.loads(BASIS_GOLDEN.read_text())


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        _write()
    elif sys.argv[1:] == ["--check-hopf-order6"]:
        if verb_outputs(hopf_commands(("6",))) != json.loads(HOPF6_GOLDEN.read_text()):
            sys.exit("verify hopf at order 6 differs from tests/golden/verify-hopf-order6.json")
    else:
        sys.exit(__doc__)
