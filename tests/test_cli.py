"""CLI tests: every subcommand and format, exit codes, deterministic
output, and round-tripping the emitted JSON back into report objects."""

import json
import shutil
import subprocess
import sys

import pytest

from calabi_bell.cli import main
from calabi_bell.inequality import ScanReport, min_negative_r


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBell:
    def test_partial_value(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "--r", "4", "--j", "2", "--x", "1,1,1")
        assert code == 0
        assert out == "7\n"

    def test_complete_value(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "--r", "4", "--x", "1,1,1,1")
        assert code == 0
        assert out == "15\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "bell", "--r", "4", "--j", "2", "--x", "1,1/1,2/2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "kind": "partial",
            "r": 4,
            "j": 2,
            "x": ["1", "1", "1"],
            "value": "7",
        }

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "--r", "3", "--x", "1,1,1", "--format", "csv")
        assert code == 0
        assert out.splitlines() == ["r,j,value", "3,,5"]

    def test_rational_inputs(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "--r", "2", "--j", "2", "--x", "1/2")
        assert code == 0
        assert out == "1/4\n"

    def test_bad_rational_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bell", "--r", "4", "--j", "2", "--x", "1.5,1,1")
        assert code == 1
        assert "not a rational" in err

    def test_short_x_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bell", "--r", "4", "--j", "2", "--x", "1,1")
        assert code == 1
        assert "--x needs at least 3" in err

    def test_bad_j_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bell", "--r", "2", "--j", "5", "--x", "1,1")
        assert code == 1
        assert "1 <= j <= r" in err


class TestUseries:
    def test_both_methods(self, capsys):
        code, out, _ = run_cli(capsys, "useries", "--n", "2", "--k0", "2", "--c", "1", "--order", "4")
        assert code == 0
        assert out == "1, -1, 4, -30\nmethods agree\n"

    def test_single_method_no_agreement_line(self, capsys):
        code, out, _ = run_cli(
            capsys, "useries", "--n", "2", "--k0", "2", "--c", "1", "--order", "4", "--method", "ode"
        )
        assert code == 0
        assert out == "1, -1, 4, -30\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "useries", "--n", "3", "--k0", "2", "--c", "1", "--order", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["values"] == ["1", "-2", "40/3"]
        assert payload["methods_agree"] is True

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "useries", "--n", "2", "--k0", "2", "--c", "1", "--order", "3", "--format", "csv"
        )
        assert out.splitlines() == ["j,a", "1,1", "2,-1", "3,4"]

    def test_eval(self, capsys):
        code, out, _ = run_cli(
            capsys, "useries", "--n", "2", "--k0", "2", "--c", "1", "--eval", "1.0"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("u(1.0) = 0.75485615244")
        assert lines[1].startswith("imaginary_residue = ")
        assert lines[2].startswith("horizontal_factor = 2.2360679")
        assert lines[3].startswith("fiber_factor = 0.4472135")
        assert lines[4].startswith("ode_residual = ")

    def test_eval_json_keys(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "useries", "--n", "4", "--k0", "4", "--c", "1/2", "--eval", "0.25", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "n", "k0", "c", "x", "u",
            "imaginary_residue", "horizontal_factor", "fiber_factor", "ode_residual",
        }
        assert abs(payload["ode_residual"]) < 1e-8

    def test_missing_order_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "useries", "--n", "2", "--k0", "2", "--c", "1")
        assert code == 1
        assert "--order is required" in err

    def test_negative_eval_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "useries", "--n", "2", "--k0", "2", "--c", "1", "--eval", "-1"
        )
        assert code == 1

    @pytest.mark.parametrize("point", ["nan", "inf", "-inf"])
    def test_non_finite_eval_is_usage_error(self, capsys, point):
        code, out, err = run_cli(
            capsys, "useries", "--n", "2", "--k0", "2", "--c", "1", f"--eval={point}"
        )
        assert code == 1
        assert out == ""
        assert "--eval point must be a finite number" in err

    def test_bad_n_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "useries", "--n", "1", "--k0", "2", "--c", "1", "--order", "2")
        assert code == 1
        assert "--n must be >= 2" in err

    def test_nonpositive_k0_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "useries", "--n", "2", "--k0", "0", "--c", "1", "--order", "2"
        )
        assert code == 1
        assert "--k0 must be positive" in err


class TestHr:
    def test_single(self, capsys):
        code, out, _ = run_cli(
            capsys, "hr", "--n", "2", "--k0", "2", "--c", "1", "--m", "1", "--r", "4"
        )
        assert code == 0
        assert out == "-2/3\n"

    def test_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "hr", "--n", "2", "--k0", "2", "--c", "1", "--m", "1", "--rmax", "4"
        )
        assert out.splitlines() == ["r\th", "1\t1", "2\t0", "3\t1/3", "4\t-2/3"]

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "hr", "--n", "2", "--k0", "2", "--c", "1", "--m", "1", "--rmax", "2", "--format", "csv",
        )
        assert out.splitlines() == ["r,h", "1,1", "2,0"]

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "hr", "--n", "2", "--k0", "2", "--c", "1", "--m", "1/2", "--r", "2", "--format", "json",
        )
        payload = json.loads(out)
        assert payload["m"] == "1/2"
        assert payload["values"] == [{"r": 2, "h": "-1/8"}]

    def test_r_and_rmax_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "hr", "--n", "2", "--k0", "2", "--c", "1", "--m", "1", "--r", "2", "--rmax", "4"
        )
        assert code == 1


class TestScan:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--n", "2", "--q", "1/2", "--rmax", "10")
        assert code == 0
        assert out.splitlines() == [
            "n = 2  q = 1/2  r_max = 10",
            "r\tS",
            "1\t1/2",
            "2\t0",
            "3\t1/4",
            "4\t-1",
            "min_negative_r = 4",
        ]

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--n", "2", "--q", "1/2", "--rmax", "10", "--format", "json"
        )
        assert code == 0
        report = ScanReport.from_json(out)
        assert report == min_negative_r(2, "1/2", 10)

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--n", "2", "--q", "1/2", "--rmax", "10", "--format", "csv"
        )
        assert out.splitlines() == ["r,S", "1,1/2", "2,0", "3,1/4", "4,-1"]

    def test_no_witness_message(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--n", "2", "--q", "1/2", "--rmax", "3")
        assert code == 0
        assert "min_negative_r = none" in out

    def test_grid_json_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--n", "3", "--grid", "1/2,1,3/2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert [entry["q"] for entry in payload] == ["1/2", "1", "3/2"]
        assert [entry["min_negative_r"] for entry in payload] == [2, 4, 4]

    def test_grid_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--n", "2", "--grid", "1/2,1", "--rmax", "10", "--format", "csv"
        )
        lines = out.splitlines()
        assert lines[0] == "q,r,S"
        assert lines[1] == "1/2,1,1/2"
        assert "1,4,-26/3" not in lines  # n = 2 grid, not n = 3 values

    def test_grid_table_blocks(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--n", "2", "--grid", "1/2,1")
        blocks = out.strip().split("\n\n")
        assert len(blocks) == 2
        assert blocks[0].startswith("n = 2  q = 1/2")
        assert blocks[1].startswith("n = 2  q = 1")

    def test_q_and_grid_conflict(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--n", "2", "--q", "1", "--grid", "1,2")
        assert code == 1

    def test_nonpositive_q(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--n", "2", "--q=-1/2")
        assert code == 1
        assert "--q must be positive" in err


class TestBlocks:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "blocks", "--d", "1", "--lambda", "2", "--c", "1")
        assert code == 0
        assert out.splitlines() == [
            "d = 1  lambda = 2  k0 = 2  c = 1  cutoff = 6",
            "r\texponent\tscale\tverdict",
            "0\t2\t1\tPSD",
            "1\t4\t1\tPSD",
            "2\t6\t0\tPSD",
            "3\t8\t1/3\tPSD",
            "4\t10\t-2/3\tnot-PSD",
            "first_negative_r = 4",
        ]

    def test_integrality_failure_table(self, capsys):
        code, out, _ = run_cli(capsys, "blocks", "--d", "1", "--lambda", "3", "--c", "1")
        assert code == 0
        assert "integrality failure: k0/2 = 2/3 is not a positive integer" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "blocks", "--d", "1", "--lambda", "1", "--c", "1", "--format", "json"
        )
        payload = json.loads(out)
        assert payload["first_negative_r"] == 2
        assert payload["blocks"][2]["scale"] == "-1/2"

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "blocks", "--d", "1", "--lambda", "1", "--c", "1", "--format", "csv"
        )
        assert out.splitlines() == [
            "r,exponent,scale,verdict",
            "0,1,1,PSD",
            "1,3,1,PSD",
            "2,5,-1/2,not-PSD",
        ]

    def test_bad_lambda(self, capsys):
        code, _, err = run_cli(capsys, "blocks", "--d", "1", "--lambda", "0", "--c", "1")
        assert code == 1
        assert "--lambda must be >= 1" in err


class TestHarness:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 1

    def test_unknown_command_is_usage_error(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_subcommand_help_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "scan", "--help")
        assert code == 0
        assert "--grid" in out

    def test_module_entry_point_deterministic(self):
        argv = [sys.executable, "-m", "calabi_bell", "scan", "--n", "2", "--q", "3", "--format", "json"]
        first = subprocess.run(argv, capture_output=True, text=True, check=True)
        second = subprocess.run(argv, capture_output=True, text=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.endswith("\n")
        assert json.loads(first.stdout)["min_negative_r"] == 8

    @pytest.mark.skipif(
        shutil.which("calabi-bell") is None, reason="console script not on PATH"
    )
    def test_console_script_runs(self):
        result = subprocess.run(
            ["calabi-bell", "bell", "--r", "4", "--j", "2", "--x", "1,1,1"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert result.stdout == "7\n"
