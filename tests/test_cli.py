"""Command-line contract: exit codes, formats, environment overrides."""

import json
import os
import subprocess
import sys

import pytest

from hopf_forge.cli import _verify_plan, build_parser

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
                             [("classical", "sl2"), ("subalgebra", "so22")])
    def test_nullplane_check_on_other_preset_is_usage_error(self, check, algebra):
        r = run("verify", check, "--algebra", algebra, "--order", "2")
        assert r.returncode == 2
        assert "runs on the nullplane preset only" in r.stderr
        assert "PASS" not in r.stdout
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("algebra", ["sl2", "so22", "sl2-jbasis"])
    def test_verify_all_skips_nullplane_checks_for_other_presets(self, algebra):
        args = build_parser().parse_args(["verify", "all", "--algebra", algebra])
        plan, _ = _verify_plan("all", algebra, args)
        labels = [label for label, _ in plan]
        assert ("classical-limit", "nullplane") not in labels
        assert ("hopf-subalgebra", "nullplane") not in labels
        assert ("hopf", algebra) in labels

    def test_verify_all_on_nullplane_keeps_nullplane_checks(self):
        args = build_parser().parse_args(["verify", "all", "--algebra", "nullplane"])
        labels = [label for label, _ in _verify_plan("all", "nullplane", args)[0]]
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
