"""Command-line contract: exit codes, formats, environment overrides."""

import contextlib
import fcntl
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hopf_forge.algebras import PRESET_NAMES, preset
from hopf_forge.cli import UsageError, _run_timed, _verify_plan, build_parser, main

CLI = [sys.executable, "-m", "hopf_forge"]


def run(*args, env=None):
    e = dict(os.environ)
    if env:
        e.update(env)
    return subprocess.run(CLI + list(args), capture_output=True, text=True, env=e)


class TestExitCodes:
    def test_verify_single_check_passes(self):
        r = run("verify", "qybe", "--algebra", "nullplane", "--order", "3")
        assert r.returncode == 0, r.stdout + r.stderr

    def test_unknown_algebra_is_usage_error(self):
        r = run("verify", "qybe", "--algebra", "bogus")
        assert r.returncode == 2
        assert "unknown preset" in r.stderr

    def test_unknown_check_is_usage_error(self):
        r = run("verify", "nonsense")
        assert r.returncode == 2

    def test_preset_takes_no_format(self):
        r = run("preset", "nullplane", "--format", "json")
        assert r.returncode == 2
        assert "unrecognized arguments: --format json" in r.stderr

    def test_bad_expression_is_usage_error(self):
        r = run("normalize", "A*Q", "--algebra", "sl2")
        assert r.returncode == 2
        assert "unknown symbol" in r.stderr

    def test_order_out_of_range(self):
        r = run("verify", "consistency", "--order", "9")
        assert r.returncode == 2

    def test_verify_all_at_order_one_reports(self):
        r = run("verify", "all", "--order", "1", "--format", "json")
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        ham = [c for c in doc["checks"] if c["check"] == "diffrep-hamiltonian"]
        assert [(c["order"], c["status"]) for c in ham] == [(1, "pass")]

    def test_r_check_without_recipe_is_usage_error(self):
        r = run("verify", "qybe", "--algebra", "sl2-jbasis", "--order", "2")
        assert r.returncode == 2
        assert "no R-matrix recipe" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("check, algebra",
                             [("classical", "sl2"), ("subalgebra", "so22"),
                              ("matrixrep", "sl2"), ("poisson", "so22")])
    def test_nullplane_check_on_other_preset_is_usage_error(self, check, algebra):
        r = run("verify", check, "--algebra", algebra, "--order", "2")
        assert r.returncode == 2
        assert "runs on the nullplane preset only" in r.stderr
        assert "PASS" not in r.stdout
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("check, algebra",
                             [("rfactor", "sl2"), ("twocopy", "nullplane"),
                              ("basischange", "nullplane")])
    def test_single_preset_check_on_other_preset_is_usage_error(self, check, algebra):
        r = run("verify", check, "--algebra", algebra, "--order", "2")
        assert r.returncode == 2
        assert "preset only" in r.stderr
        assert "PASS" not in r.stdout
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("algebra", ["sl2", "so22", "sl2-jbasis"])
    def test_verify_all_skips_nullplane_checks_for_other_presets(self, algebra):
        args = build_parser().parse_args(["verify", "all", "--algebra", algebra])
        plan = _verify_plan("all", algebra, args)
        labels = [label for label, _, _ in plan]
        assert ("classical-limit", "nullplane") not in labels
        assert ("hopf-subalgebra", "nullplane") not in labels
        assert ("hopf", algebra) in labels

    def test_verify_all_on_nullplane_keeps_nullplane_checks(self):
        args = build_parser().parse_args(["verify", "all", "--algebra", "nullplane"])
        labels = [label for label, _, _ in _verify_plan("all", "nullplane", args)]
        assert ("classical-limit", "nullplane") in labels
        assert ("hopf-subalgebra", "nullplane") in labels

    def test_fault_fails_named_check(self):
        r = run("verify", "consistency", "--algebra", "nullplane",
                "--order", "2", "--inject-fault", "ncalg-rule")
        assert r.returncode == 1
        assert "FAIL consistency" in r.stdout

    def test_timeout_budget_marks_failure(self):
        r = run("verify", "consistency", "--algebra", "sl2", "--order", "2",
                "--timeout-secs", "0.000001")
        assert r.returncode == 1
        assert "wall clock" in r.stdout

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "abc"])
    def test_bad_timeout_is_usage_error(self, value):
        r = run("verify", "consistency", "--algebra", "sl2", "--order", "2",
                "--timeout-secs", value)
        assert r.returncode == 2
        assert "--timeout-secs" in r.stderr
        assert "positive number of seconds" in r.stderr
        assert "Traceback" not in r.stderr and "PASS" not in r.stdout

    @pytest.mark.parametrize("verb", ["normalize", "expand"])
    def test_rewriting_error_exits_one_without_traceback(self, verb, monkeypatch, capsys):
        from hopf_forge import cli, ncalg
        from hopf_forge.algebras import preset
        preset("nullplane", 2)  # built under the real step bound
        monkeypatch.setattr(ncalg, "REWRITE_STEP_LIMIT", 10)
        code = cli.main([verb, "(F_1*P_minus)^40", "--algebra", "nullplane",
                         "--order", "2"])
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith("error: NonTerminating: rewriting exceeded 10 steps")
        assert "Traceback" not in out + err and not out


NULLPLANE = ("nullplane",)
R_RECIPE = ("sl2", "so22", "nullplane")

# verb -> the presets it accepts with --algebra
ACCEPTS = {
    "consistency": PRESET_NAMES, "hopf": PRESET_NAMES, "casimir": PRESET_NAMES,
    "classical": NULLPLANE, "subalgebra": NULLPLANE,
    "qybe": R_RECIPE, "intertwine": R_RECIPE, "triangular": R_RECIPE,
    "cybe": R_RECIPE, "cocommutator": R_RECIPE,
    "rfactor": ("so22",), "twocopy": ("so22",), "basischange": ("sl2-jbasis",),
    "contraction": NULLPLANE, "matrixrep": NULLPLANE, "matrixr": NULLPLANE,
    "poisson": NULLPLANE, "rtt": NULLPLANE, "weyl": NULLPLANE,
    "groupcoproduct": NULLPLANE, "qplane": NULLPLANE, "diffrep": NULLPLANE,
}

# (label, presets, order) of the default `verify all` plan, in plan order
DEFAULT_PLAN = [
    ("consistency", PRESET_NAMES, 4), ("hopf", PRESET_NAMES, 4),
    ("casimir-centrality", PRESET_NAMES, 4),
    ("classical-limit", NULLPLANE, 4), ("hopf-subalgebra", NULLPLANE, 4),
    ("qybe", ("sl2", "nullplane"), 3), ("qybe", ("so22",), 2),
    ("intertwine", ("sl2", "nullplane"), 3), ("triangular", R_RECIPE, 4),
    ("cybe", ("so22", "nullplane"), 4), ("cocommutator", ("so22", "nullplane"), 4),
    ("cocommutator-table", NULLPLANE, 4), ("classical-r", R_RECIPE, 4),
    ("r-factorization", ("so22",), 4), ("twocopy", ("so22",), 4),
    ("basis-change", ("sl2-jbasis",), 4), ("contraction", NULLPLANE, 4),
    ("matrixrep", NULLPLANE, 4), ("matrix-r", NULLPLANE, 4),
    ("poisson-table", NULLPLANE, 4), ("poisson-jacobi", NULLPLANE, 4),
    ("rtt", NULLPLANE, 4), ("weyl", NULLPLANE, 4), ("group-coproduct", NULLPLANE, 4),
    ("qplane", NULLPLANE, 4), ("diffrep", NULLPLANE, 4),
]


def run_into_closed_pipe(*args, read=0):
    """Run the CLI with stdout on a 4 kB pipe whose read end closes after
    ``read`` bytes (at once for 0); (exit code, bytes read, stderr)."""
    rfd, wfd = os.pipe()
    fcntl.fcntl(wfd, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(CLI + list(args), stdout=wfd, stderr=subprocess.PIPE)
    os.close(wfd)
    got = os.read(rfd, read) if read else b""
    os.close(rfd)
    _, err = proc.communicate(timeout=300)
    return proc.returncode, got, err.decode()


class TestClosedStdout:
    """``hopf-forge ... | head`` ends quietly with exit code 141."""

    def test_reader_closes_after_a_few_bytes(self):
        # 6.5 kB of output into a 4 kB pipe: the write is still blocked when
        # the reader goes away
        code, got, err = run_into_closed_pipe("show", "rmatrix", "--algebra", "so22",
                                              "--order", "4", read=16)
        assert got
        assert "Traceback" not in err, err
        assert code == 141

    def test_reader_gone_before_the_json_report(self):
        code, _, err = run_into_closed_pipe("verify", "consistency", "--format", "json")
        assert "Traceback" not in err, err
        assert code == 141


def plan_of(*argv):
    args = build_parser().parse_args(["verify", *argv])
    return _verify_plan(args.check, args.algebra, args)


class TestVerifyPlan:
    """The verify table, read through ``_verify_plan``; no check runs."""

    def test_verbs_are_the_table(self):
        with pytest.raises(UsageError, match="choose from all, " + ", ".join(ACCEPTS)):
            plan_of("nonsense")

    @pytest.mark.parametrize("check, algebra",
                             [(c, p) for c in ACCEPTS for p in PRESET_NAMES
                              if p not in ACCEPTS[c]])
    def test_refused_preset_is_usage_error(self, check, algebra):
        with pytest.raises(UsageError) as e:
            plan_of(check, "--algebra", algebra)
        if len(ACCEPTS[check]) == 1:
            assert f"runs on the {ACCEPTS[check][0]} preset only" in str(e.value)
        else:
            assert "no R-matrix recipe" in str(e.value)

    @pytest.mark.parametrize("check, algebra",
                             [(c, p) for c in ACCEPTS for p in ACCEPTS[c]])
    def test_accepted_preset_runs_there_only(self, check, algebra):
        plan = plan_of(check, "--algebra", algebra)
        assert plan
        assert {p for (_, p), _, _ in plan} == {algebra}

    def test_default_plan(self):
        want = [(label, p, order) for label, presets, order in DEFAULT_PLAN
                for p in presets]
        assert [(label, p, order) for (label, p), order, _ in plan_of("all")] == want

    def test_plan_at_order_two(self):
        want = [(label, p, 3 if label == "matrix-r" else 2)
                for label, presets, _ in DEFAULT_PLAN for p in presets]
        got = [(label, p, order) for (label, p), order, _ in plan_of("all", "--order", "2")]
        assert got == want

    def test_all_on_one_preset_keeps_the_rows_that_accept_it(self):
        got = [(label, p) for (label, p), _, _ in plan_of("all", "--algebra", "so22")]
        assert got == [("consistency", "so22"), ("hopf", "so22"),
                       ("casimir-centrality", "so22"), ("qybe", "so22"),
                       ("intertwine", "so22"), ("triangular", "so22"), ("cybe", "so22"),
                       ("cocommutator", "so22"), ("classical-r", "so22"),
                       ("r-factorization", "so22"), ("twocopy", "so22")]

    def test_blocked_check_reports_under_its_own_label(self):
        args = build_parser().parse_args(["verify", "qybe", "--algebra", "nullplane",
                                          "--order", "2", "--inject-fault", "ncalg-rule"])
        out = []
        for label, order, fn in _verify_plan("qybe", "nullplane", args):
            _run_timed(label, fn, out, 900, order)
        assert [(r.check, r.algebra, r.order, r.passed) for r in out] == \
            [("qybe", "nullplane", 2, False)]
        assert out[0].failures[0]["input"] == "PresetConstructionError"
        assert "consistency nullplane" in out[0].failures[0]["residual"]

    def test_raising_check_is_a_report(self):
        def boom():
            raise KeyError("x")
        out = []
        _run_timed(("matrix-r", "nullplane"), boom, out, 900, 3)
        assert [(r.check, r.algebra, r.order, r.passed) for r in out] == \
            [("matrix-r", "nullplane", 3, False)]
        assert out[0].failures[0]["input"] == "KeyError"

    def test_hopf_reports_carry_their_own_time(self):
        import time
        args = build_parser().parse_args(["verify", "hopf", "--algebra", "so22",
                                          "--order", "2"])
        ((label, order, fn),) = _verify_plan("hopf", "so22", args)
        out = []
        t0 = time.monotonic()
        _run_timed(label, fn, out, 900, order)
        batch = time.monotonic() - t0
        seconds = [r.seconds for r in out]
        assert [r.check for r in out] == ["coassociativity", "counit", "antipode",
                                          "coproduct-hom"]
        assert all(t > 0 for t in seconds) and sum(seconds) <= batch
        assert len(set(seconds)) == 4, seconds

    @pytest.mark.parametrize("check, algebra, names", [
        ("contraction", "nullplane", ["contraction-commutators", "contraction-coproducts",
                                      "contraction-casimirs", "contraction-classical"]),
        ("diffrep", "nullplane", ["diffrep-relations", "diffrep-casimirs",
                                  "diffrep-hamiltonian", "diffrep-action"]),
        ("twocopy", "so22", ["twocopy-commutators", "twocopy-coproducts",
                             "twocopy-casimirs"]),
    ])
    def test_batch_reports_carry_their_own_time(self, check, algebra, names):
        import time
        args = build_parser().parse_args(["verify", check, "--algebra", algebra,
                                          "--order", "2"])
        ((label, order, fn),) = _verify_plan(check, algebra, args)
        out = []
        t0 = time.monotonic()
        _run_timed(label, fn, out, 900, order)
        batch = time.monotonic() - t0
        seconds = [r.seconds for r in out]
        assert [r.check for r in out] == names
        assert all(t > 0 for t in seconds) and sum(seconds) <= batch
        assert len(set(seconds)) == len(names), seconds

    def test_consistency_row_reports_a_copy_of_the_cached_report(self):
        from hopf_forge.algebras import preset
        args = build_parser().parse_args(["verify", "consistency", "--algebra", "sl2",
                                          "--order", "2"])
        cached = preset("sl2", 2).consistency
        out = []
        for label, order, fn in _verify_plan("consistency", "sl2", args):
            _run_timed(label, fn, out, 1e-9, order)
        assert [(r.check, r.algebra, r.order) for r in out] == [("consistency", "sl2", 2)]
        assert out[0].failures[0]["input"] == "wall clock"
        assert out[0] is not cached and out[0].seconds
        assert cached.passed and not cached.seconds


class TestOutputs:
    def test_normalize_text(self):
        r = run("normalize", "A*A_plus", "--algebra", "sl2", "--order", "2")
        assert r.returncode == 0
        assert r.stdout.strip() == \
            "2*A_plus + 2*z*A_plus^2 + A_plus*A + 4/3*z^2*A_plus^3"

    def test_expand_groups_by_order(self):
        r = run("expand", "exp(2*w*P_plus)", "--algebra", "nullplane", "--order", "2")
        lines = r.stdout.strip().splitlines()
        assert lines[0].startswith("w^0:")
        assert any(l.startswith("w^2:") for l in lines)

    def test_verify_json_schema(self):
        r = run("verify", "triangular", "--algebra", "sl2", "--order", "2",
                "--format", "json")
        doc = json.loads(r.stdout)
        assert doc["reportVersion"] == 1
        assert doc["status"] == "pass"
        for c in doc["checks"]:
            assert set(c) >= {"check", "algebra", "order", "status", "failures"}

    def test_preset_listing(self):
        r = run("preset")
        assert r.returncode == 0
        for name in ("sl2", "so22", "nullplane", "sl2-jbasis"):
            assert name in r.stdout

    def test_preset_details(self):
        r = run("preset", "nullplane", "--order", "2")
        assert "P_plus < P_1 < P_minus < E_1 < K_2 < F_1" in r.stdout
        assert "M_q2" in r.stdout

    def test_show_hamiltonian(self):
        r = run("show", "hamiltonian", "--order", "2")
        assert r.returncode == 0
        assert "w^0" in r.stdout and "p_plus" in r.stdout

    def test_show_relations(self):
        r = run("show", "relations", "--algebra", "sl2", "--order", "2")
        assert "[A,A_plus]" in r.stdout

    def test_show_brackets_json(self):
        r = run("show", "brackets", "--format", "json")
        doc = json.loads(r.stdout)
        assert doc["{a_plus,a_1}"] == "(-2)*a_1"

    @pytest.mark.parametrize("subject", ["hamiltonian", "brackets"])
    def test_show_null_plane_subject_refuses_another_algebra(self, subject):
        r = run("show", subject, "--algebra", "sl2")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "--algebra 'sl2' does not apply" in r.stderr

    @pytest.mark.parametrize("subject", ["hamiltonian", "brackets"])
    def test_show_null_plane_subject_accepts_nullplane(self, subject):
        r = run("show", subject, "--algebra", "nullplane")
        assert r.returncode == 0, r.stderr
        assert r.stdout == run("show", subject).stdout

    def test_show_brackets_ignores_the_order(self):
        # the Sklyanin table is linear in w, so no truncation order changes it
        assert run("show", "brackets", "--order", "1").stdout == run("show", "brackets").stdout
        assert "brackets ignores it" in " ".join(run("show", "--help").stdout.split())

    def test_show_brackets_has_no_latex(self):
        r = run("show", "brackets", "--format", "latex")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "not latex" in r.stderr


def show_in_process(*argv):
    """(exit code, stdout) of ``show`` with ``argv``, run in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["show", *argv])
    return code, buf.getvalue()


class TestShowJson:
    """Every preset subject writes one JSON document under --format json."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("subject", ["generators", "relations", "coproducts",
                                         "antipodes", "casimirs"])
    def test_one_document(self, subject, name):
        code, out = show_in_process(subject, "--algebra", name, "--order", "2",
                                    "--format", "json")
        assert code == 0
        doc = json.loads(out)
        alg = preset(name, 2).presentation
        assert doc["param"] == alg.param and doc["order"] == 2
        if subject == "generators":
            assert doc["generators"] == list(alg.generators)
            assert set(doc["primitive_generators"]) <= set(alg.generators)
        else:  # one entry per line of the text output, under the same label
            _, text = show_in_process(subject, "--algebra", name, "--order", "2")
            assert sorted(doc["entries"]) == sorted(
                line.split(" = ")[0] for line in text.splitlines())


def cli_in_process(argv):
    """(exit code, stdout, stderr) of ``main(argv)`` in this process; an
    argparse refusal gives its SystemExit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


SUBJECTS = ("generators", "relations", "coproducts", "antipodes", "casimirs",
            "rmatrix", "hamiltonian", "brackets")
MALFORMED = ("A + -2", "3*-2", "(", "exp(A)", "A^99999", "A§")


def sweep(command, order):
    """Every argv of ``command`` at ``order``: no --algebra, then each preset,
    under each format the command accepts; the expression verbs take one
    well-formed product of the preset's first two generators and each of
    :data:`MALFORMED`."""
    for name in (None, *PRESET_NAMES):
        common = (["--algebra", name] if name else []) + ["--order", order]
        if command == "preset":
            yield ["preset", *([name] if name else []), "--order", order]
        elif command == "show":
            for subject in SUBJECTS:
                for fmt in ("text", "json", "latex"):
                    yield ["show", subject, *common, "--format", fmt]
        elif command == "verify":
            from hopf_forge.cli import _check_table
            for check in ("all", *_check_table()):
                for fmt in ("text", "json"):
                    yield ["verify", check, *common, "--format", fmt]
        else:
            gens = preset(name, 2).presentation.generators if name else ("A_plus", "A")
            for text in (f"{gens[1]}*{gens[0]}", *MALFORMED):
                for fmt in ("text", "json", "latex"):
                    yield [command, text, *common, "--format", fmt]


class TestContractSweep:
    """Every CLI surface ends in a report or a usage error (ROADMAP item 19):
    exit 0 under json is one JSON document and under latex not the text
    output, exit 2 writes nothing to stdout and an ``error:`` or usage line
    to stderr, and no exception escapes."""

    @pytest.mark.parametrize("order", ["1", "2"])
    @pytest.mark.parametrize("command", ["show", "preset", "normalize", "expand", "verify"])
    def test_contract(self, command, order):
        broken, text = [], {}  # argv without its format -> the text output
        for argv in sweep(command, order):
            fmt = argv[-1] if argv[-2] == "--format" else "text"
            try:
                code, out, err = cli_in_process(argv)
            except Exception as e:  # an escaping exception is what the sweep looks for
                broken.append((argv, f"raised {type(e).__name__}: {e}"))
                continue
            if fmt == "text":
                text[tuple(argv[:-1])] = out
            if code not in (0, 1, 2):
                broken.append((argv, f"exit {code}"))
            elif code == 0 and fmt == "json":
                try:
                    json.loads(out)
                except ValueError:
                    broken.append((argv, "exit 0 without one JSON document"))
            elif code == 0 and fmt == "latex" and out == text.get(tuple(argv[:-1])):
                broken.append((argv, "exit 0 with the text output"))
            elif code == 2 and (out or not err.startswith(("error:", "usage:"))):
                broken.append((argv, f"usage error wrote {out[:60]!r}, {err[:60]!r}"))
        assert broken == []


class TestEnvironment:
    def test_order_env_override(self):
        r = run("normalize", "exp(2*z*A_plus)", "--algebra", "sl2",
                env={"HOPF_FORGE_ORDER": "2"})
        assert r.returncode == 0
        assert "z^3" not in r.stdout
        assert "z^2" in r.stdout

    def test_flag_beats_env(self):
        r = run("normalize", "exp(2*z*A_plus)", "--algebra", "sl2", "--order", "3",
                env={"HOPF_FORGE_ORDER": "2"})
        assert "z^3" in r.stdout

    @pytest.mark.parametrize("value", ["abc", "9", "0"])
    def test_bad_order_env_is_usage_error(self, value):
        r = run("verify", "hopf", env={"HOPF_FORGE_ORDER": value})
        assert r.returncode == 2
        assert "HOPF_FORGE_ORDER" in r.stderr
        assert "Traceback" not in r.stderr


CHECK_MODULES = {"contraction", "diffrep", "ratfunc", "repfrt", "rmat"}


def modules_after(argv):
    """The hopf_forge modules that a fresh process has loaded after ``cli.main(argv)``."""
    code = ("import contextlib, io, sys\n"
            "from hopf_forge import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n"
            "print(' '.join(m for m in sys.modules if m.startswith('hopf_forge.')))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return {m.split(".", 1)[1] for m in r.stdout.split()}


class TestImports:
    def test_normalize_imports_no_check_module(self):
        loaded = modules_after(["normalize", "A_plus*A", "--algebra", "sl2"])
        assert "ncalg" in loaded
        assert not loaded & CHECK_MODULES

    def test_verify_imports_the_modules_its_rows_run(self):
        loaded = modules_after(["verify", "poisson"])
        assert "repfrt" in loaded
        assert "contraction" not in loaded

    def test_verify_help_names_every_verb(self, capsys):
        from hopf_forge.cli import _check_table
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert f"all or one of: {', '.join(_check_table())}" in text


class TestLeadingMinus:
    """An expression may start with "-": argparse would read a space-free one
    as an unknown option."""

    @pytest.mark.parametrize("command", ["normalize", "expand"])
    def test_negative_output_round_trips(self, command):
        code, out, err = cli_in_process(["normalize", "P_1*P_plus - 3*P_plus*P_1",
                                         "--algebra", "nullplane"])
        assert (code, out) == (0, "-2*P_plus*P_1\n"), err
        code, again, err = cli_in_process([command, out.strip(), "--algebra", "nullplane"])
        assert code == 0, err
        assert again == (out if command == "normalize" else "w^0: " + out)

    def test_second_leftover_is_still_refused(self):
        code, out, err = cli_in_process(["normalize", "P_1", "-P_1", "--algebra", "nullplane"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: -P_1" in err

    def test_missing_expression_is_refused(self):
        code, out, err = cli_in_process(["expand", "--algebra", "nullplane"])
        assert (code, out) == (2, "")
        assert "the following arguments are required: expression" in err


# the expression alphabet: numbers, operators, every preset's generators, both
# parameters, sqrt2, exp( and a few characters outside it
ATOMS = ("0", "1", "2", "10", "(", ")", "w", "z", "sqrt2", "exp(", "§", "é", "⊗",
         *(g for name in ("sl2", "nullplane", "so22")
           for g in preset(name, 2).presentation.generators))
OPERATORS = ("", "+", "-", "*", "*", "*", "/", "^", " - ", "(", ")")


def expressions(algebra):
    """``(text, algebra)``: an operator and an atom of the alphabet in turn (an
    empty operator juxtaposes two atoms; a leading ``*``, ``/`` or ``^`` is
    dropped), the preset's own generators and parameter, 2 and sqrt2 drawn more
    often than the other atoms."""
    alg = preset(algebra, 2).presentation
    atoms = ATOMS + (*alg.generators, alg.param, "2", "sqrt2") * 6
    pairs = st.tuples(st.sampled_from(OPERATORS), st.sampled_from(atoms))
    text = st.lists(pairs, max_size=6).map(lambda ps: "".join(o + a for o, a in ps))
    return st.tuples(text.map(lambda t: t[1:] if t[:1] in "*/^" else t), st.just(algebra))


class TestNormalizeFuzz:
    """Generated input to ``normalize`` ends in a report or an error line, and
    every normal form it prints normalizes to itself."""

    @given(st.sampled_from(["sl2", "nullplane", "so22"]).flatmap(expressions))
    @example(("0-P_1", "nullplane"))
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    def test_normalize(self, case):
        text, algebra = case
        argv = ["normalize", text, "--algebra", algebra, "--order", "2"]
        code, out, err = cli_in_process(argv)
        assert code in (0, 1, 2)
        if code:
            assert "error:" in err
            assert code == 1 or out == ""
        else:
            argv[1] = out.rstrip("\n")
            assert cli_in_process(argv)[:2] == (0, out)
