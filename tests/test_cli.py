"""CLI tests: every subcommand and format, exit codes, deterministic
output, and round-tripping the emitted JSON back into report objects."""

import json
import math
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import calabi_bell.cli as cli_mod
import calabi_bell.inequality as inequality_mod
import calabi_bell.potential as potential_mod
from calabi_bell.cli import INDEX_CEILING, RMAX_CEILING, main
from calabi_bell.inequality import ScanReport, min_negative_r
from calabi_bell.potential import CoefficientSequence


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

    def test_j_near_deep_r(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "--r", "2002", "--j", "2000", "--x", "1,1,1")
        assert code == 0
        assert out == f"{math.comb(2002, 3) + 3 * math.comb(2002, 4)}\n"

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

    @pytest.mark.parametrize("n", ["2", "3"])
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_overflowing_eval_is_usage_error(self, capsys, n, fmt):
        code, out, err = run_cli(
            capsys, "useries", "--n", n, "--k0", "2", "--c", "1", "--eval", "1e308", "--format", fmt
        )
        assert code == 1
        assert out == ""
        assert "--eval point 1e+308 is out of range" in err

    def test_large_finite_eval_unchanged(self, capsys):
        args = ("useries", "--n", "2", "--k0", "2", "--c", "1", "--eval", "1e200")
        expected = {
            "table": (
                "u(1e+200) = 2e+100\n"
                "imaginary_residue = 1.4038034979540477e-14\n"
                "horizontal_factor = 2e+100\n"
                "fiber_factor = 5e-101\n"
                "ode_residual = 0.0\n"
            ),
            "json": (
                '{\n  "n": 2,\n  "k0": "2",\n  "c": "1",\n  "x": 1e+200,\n  "u": 2e+100,\n'
                '  "imaginary_residue": 1.4038034979540477e-14,\n  "horizontal_factor": 2e+100,\n'
                '  "fiber_factor": 5e-101,\n  "ode_residual": 0.0\n}\n'
            ),
            "csv": (
                "x,u,imaginary_residue,horizontal_factor,fiber_factor,ode_residual\n"
                "1e+200,2e+100,1.4038034979540477e-14,2e+100,5e-101,0.0\n"
            ),
        }
        for fmt, text in expected.items():
            code, out, _ = run_cli(capsys, *args, "--format", fmt)
            assert code == 0
            assert out == text, fmt

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


class TestCoefficientMismatch:
    @pytest.fixture(autouse=True)
    def corrupt_closed_route(self, monkeypatch):
        real = potential_mod.u_coeffs_closed

        def corrupted(params, order):
            good = real(params, order)
            values = good.values[:-1] + (good.values[-1] + 1,)
            return CoefficientSequence(params, values, "closed-form")

        monkeypatch.setattr(potential_mod, "u_coeffs_closed", corrupted)

    @pytest.mark.parametrize(
        "argv",
        [
            ("useries", "--n", "3", "--k0", "2", "--c", "1", "--order", "5", "--method", "both"),
            ("hr", "--n", "3", "--k0", "2", "--c", "1", "--m", "1", "--rmax", "5"),
        ],
    )
    def test_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "internal consistency failure" in err
        assert "j=5" in err


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

    @pytest.mark.parametrize("d,multiple,cutoff", [(1, 2, INDEX_CEILING), (INDEX_CEILING, 1, 1)])
    def test_index_ceiling_edge_is_fast(self, capsys, d, multiple, cutoff):
        # The scan reads each verdict off the sign of h_r and builds no
        # matrix, so the monomial count does not set its cost.
        argv = ["--d", str(d), "--lambda", str(multiple), "--c", "1", "--cutoff", str(cutoff)]
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "blocks", *argv)
        assert time.perf_counter() - start < 2
        assert code == 0
        assert out.splitlines()[-1].startswith("first_negative_r = ")

    def test_bad_lambda(self, capsys):
        code, _, err = run_cli(capsys, "blocks", "--d", "1", "--lambda", "0", "--c", "1")
        assert code == 1
        assert "--lambda must be >= 1" in err


class TestWorkCeilings:
    """A request above a ceiling is a usage error before any work starts;
    these tests never run near a ceiling."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started above a ceiling")

        monkeypatch.setattr(inequality_mod, "_s_rows", refuse)
        for name in ("min_negative_r", "scan_grid", "h_values", "FubiniStudyBase", "eh_block_scan"):
            monkeypatch.setattr(cli_mod, name, refuse)

    @pytest.mark.parametrize(
        "argv",
        [
            ("scan", "--n", "2", "--q", "3", "--rmax", str(RMAX_CEILING + 1)),
            ("scan", "--n", "2", "--grid", "1,2", "--rmax", str(10**30)),
            ("hr", "--n", "2", "--k0", "2", "--c", "1", "--m", "1", "--r", str(RMAX_CEILING + 1)),
            ("hr", "--n", "2", "--k0", "2", "--c", "1", "--m", "1", "--rmax", str(RMAX_CEILING + 1)),
            ("blocks", "--d", "1", "--lambda", "2", "--c", "1", "--rmax", str(RMAX_CEILING + 1)),
        ],
    )
    def test_rmax_above_ceiling(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"work ceiling RMAX_CEILING = {RMAX_CEILING}" in err

    @pytest.mark.parametrize(
        "d,cutoff",
        [
            (1, INDEX_CEILING + 1),  # C(cutoff + 1, 1) - 1 = cutoff
            (INDEX_CEILING + 1, 1),  # C(d + 1, d) - 1 = d
            (6, 20),  # C(26, 6) - 1 = 230,229
            (10**9, 10**9),
        ],
    )
    def test_index_count_above_ceiling(self, capsys, d, cutoff):
        code, out, err = run_cli(
            capsys, "blocks", "--d", str(d), "--lambda", "2", "--c", "1", "--cutoff", str(cutoff)
        )
        assert code == 1
        assert out == ""
        assert f"work ceiling INDEX_CEILING = {INDEX_CEILING}" in err

    def test_ceilings_themselves_are_accepted(self):
        # The checks pass at the ceiling; the refusing kernel then shows
        # that the run would start.
        with pytest.raises(AssertionError, match="work started"):
            main(["scan", "--n", "2", "--q", "3", "--rmax", str(RMAX_CEILING)])
        with pytest.raises(AssertionError, match="work started"):
            main(["blocks", "--d", "1", "--lambda", "2", "--c", "1", "--cutoff", str(INDEX_CEILING)])


GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_output(capsys, case):
    """Exit code and exact stdout, recorded before the CLI's rendering was
    consolidated; the fixture is never regenerated."""
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, out) == (case["code"], case["stdout"])


def _readme_examples() -> list[tuple[str, list[str]]]:
    """(command, expected stdout lines) for every ``$ calabi-bell`` example
    in the README's "CLI usage" section."""
    text = (Path(__file__).parent.parent / "README.md").read_text()
    section = text.split("## CLI usage", 1)[1].split("\n## ", 1)[0]
    examples: list[tuple[str, list[str]]] = []
    for block in section.split("```")[1::2]:
        for line in block.splitlines():
            if line.startswith("$ calabi-bell "):
                examples.append((line[len("$ calabi-bell "):].split("#")[0].strip(), []))
            elif examples and line:
                examples[-1][1].append(line)
    return examples


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize(
    "command,expected", README_EXAMPLES, ids=[command for command, _ in README_EXAMPLES]
)
def test_readme_example(capsys, command, expected):
    """A ``...`` line in the README elides the middle of the output."""
    code, out, _ = run_cli(capsys, *shlex.split(command))
    assert code == 0
    lines = out.splitlines()
    if "..." in expected:
        cut = expected.index("...")
        head, tail = expected[:cut], expected[cut + 1:]
        assert len(lines) >= len(head) + len(tail)
        assert lines[: len(head)] == head
        assert lines[len(lines) - len(tail):] == tail
    else:
        assert lines == expected


def test_readme_examples_cover_every_subcommand():
    commands = {command.split()[0] for command, _ in README_EXAMPLES}
    assert commands == {"bell", "useries", "hr", "scan", "blocks"}


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
