"""CLI tests: every subcommand and format, exit codes, deterministic
output, and the emitted JSON read back as the reports' payloads."""

import contextlib
import csv
import io
import json
import math
import random
import re
import shlex
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import calabi_bell.cli as cli_mod
import calabi_bell.diastasis as diastasis_mod
import calabi_bell.inequality as inequality_mod
import calabi_bell.potential as potential_mod
from calabi_bell.cli import ORDER_CEILING, RMAX_CEILING, build_parser, main
from calabi_bell.inequality import min_negative_r, scan_grid
from calabi_bell.potential import EVAL_N_CEILING
from calabi_bell.rationals import format_rational


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

    @pytest.mark.parametrize("x", ["--x=1,,2", "--x=1,2,", "--x=,1,2", "--x="])
    def test_empty_x_item_is_usage_error(self, capsys, x):
        code, out, err = run_cli(capsys, "bell", "--r", "2", x)
        assert (code, out) == (1, "")
        assert "empty item" in err

    def test_short_x_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bell", "--r", "4", "--j", "2", "--x", "1,1")
        assert code == 1
        assert err == "error: x needs at least 3 values, got 2\n"

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
        assert err == f"error: x must be a finite number >= 0, got {point}\n"

    @pytest.mark.parametrize("n", ["2", "3"])
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_overflowing_eval_is_usage_error(self, capsys, n, fmt):
        code, out, err = run_cli(
            capsys, "useries", "--n", n, "--k0", "2", "--c", "1", "--eval", "1e308", "--format", fmt
        )
        assert code == 1
        assert out == ""
        assert err == "error: the radicand 1 + n k0 c x overflows a double at x=1e+308\n"

    @pytest.mark.parametrize(
        "k0,c,message",
        [
            ("1" + "0" * 400, "1", "k0 overflows a double"),
            ("1/1" + "0" * 400, "1", "k0 underflows a double"),
            ("2", "1/1" + "0" * 400, "c underflows a double"),
            ("1" + "0" * 200, "1" + "0" * 200, "n k0 c overflows a double"),
        ],
        ids=["k0=10^400", "k0=10^-400", "c=10^-400", "k0=c=10^200"],
    )
    def test_parameters_outside_a_double_are_usage_errors(self, capsys, k0, c, message):
        code, out, err = run_cli(capsys, "useries", "--n", "2", "--k0", k0, "--c", c, "--eval", "1")
        assert (code, out, err) == (1, "", f"error: {message}\n")

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

    # u''(0) = a_2 = -7284.375 here; its sum of 1,000 complex terms keeps an
    # imaginary rounding residue near 3e-10, above the absolute IMAG_TOL but
    # tiny against the sum's size, which the u'' guard is relative to.
    BIG_U2 = ("useries", "--n", "1000", "--k0", "7/3", "--c", "5/2", "--eval", "0")

    def test_large_second_derivative_is_not_a_branch_failure(self, capsys):
        code, out, err = run_cli(capsys, *self.BIG_U2)
        assert (code, err) == (0, "")
        assert out.startswith("u(0.0) = ")
        params = potential_mod.CalabiParams(1000, Fraction(7, 3), Fraction(5, 2))
        u2 = potential_mod.ClosedFormEvaluator(params).derivatives(0.0)[2]
        assert math.isclose(u2, potential_mod.u_coeffs(params, 2).values[1], rel_tol=1e-9)

    def test_crossed_branch_still_exits_2(self, capsys, monkeypatch):
        # A log that adds 2 pi i below the real axis, as a crossed branch
        # would: the u sum then carries 2 pi i times a sum of weights, which
        # its absolute guard catches.
        log = potential_mod.cmath.log
        crossed = lambda z: log(z) + (2j * math.pi if z.imag < 0 else 0)  # noqa: E731
        monkeypatch.setattr(potential_mod.cmath, "log", crossed)
        code, out, err = run_cli(capsys, *self.BIG_U2)
        assert (code, out) == (2, "")
        assert err.startswith("internal consistency failure: imaginary residue ")
        assert " in u at x=0.0 exceeds tolerance 1.0e-10\n" in err

    def test_bad_n_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "useries", "--n", "1", "--k0", "2", "--c", "1", "--order", "2")
        assert code == 1
        assert err == "error: n must be an integer >= 2, got 1\n"

    def test_nonpositive_k0_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "useries", "--n", "2", "--k0", "0", "--c", "1", "--order", "2"
        )
        assert code == 1
        assert err == "error: k0 must be positive, got 0\n"


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

    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    @pytest.mark.parametrize("k", [1, 5, 17])
    def test_single_r_is_the_last_of_rmax(self, capsys, k, fmt):
        common = ("hr", "--n", "3", "--k0", "7/3", "--c", "5/2", "--m", "3/2", "--format", fmt)
        code, single, _ = run_cli(capsys, *common, "--r", str(k))
        assert code == 0
        code, full, _ = run_cli(capsys, *common, "--rmax", str(k))
        assert code == 0
        if fmt == "json":
            single, full = json.loads(single), json.loads(full)
            assert single["values"] == full["values"][-1:]
            assert single["values"][0]["r"] == k
            assert {**single, "values": None} == {**full, "values": None}
        elif fmt == "csv":
            header, *rows = full.splitlines()
            assert single.splitlines() == [header, rows[-1]]
            assert rows[-1].startswith(f"{k},")
        else:
            assert single == full.splitlines()[-1].split("\t")[1] + "\n"
            assert full.splitlines()[-1].startswith(f"{k}\t")

    def test_r_and_rmax_conflict(self, capsys):
        code, _, err = run_cli(
            capsys, "hr", "--n", "2", "--k0", "2", "--c", "1", "--m", "1", "--r", "2", "--rmax", "4"
        )
        assert code == 1


class TestCoefficientMismatch:
    @pytest.fixture(autouse=True)
    def corrupt_closed_route(self, monkeypatch):
        real = potential_mod._closed_ratios

        def corrupted(params, order):
            *good, (p, q) = real(params, order)
            return [*good, (p + q, q)]  # the last value plus one

        monkeypatch.setattr(potential_mod, "_closed_ratios", corrupted)

    @pytest.mark.parametrize(
        "argv",
        [
            ("useries", "--n", "3", "--k0", "2", "--c", "1", "--order", "5", "--method", "both"),
        ],
    )
    def test_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "internal consistency failure" in err
        assert "j=5" in err


def test_corrupted_ode_integer_exits_2(capsys, monkeypatch):
    # N_5 one too large: 2 s (s-1) = 40 divides the shift of the row sum,
    # so the remainder guard passes and only the closed route catches it.
    def shifted(total, base):
        return divmod(total + (base if base == 40 else 0), base)

    monkeypatch.setattr(potential_mod, "divmod", shifted, raising=False)
    argv = ("useries", "--n", "3", "--k0", "2", "--c", "1", "--order", "5", "--method", "both")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "internal consistency failure" in err
    assert "j=5" in err


class TestKernelMismatch:
    """A kernel row that is wrong by a factor keeps its sign, so the scan
    stops where it would; the re-check of the last row must catch it."""

    @pytest.mark.parametrize(
        "argv,wrong_r,row",
        [
            (("hr", "--n", "3", "--k0", "2", "--c", "1", "--m", "1", "--rmax", "5"), 5, "S(3, 1/2, 5)"),
            (("blocks", "--d", "1", "--lambda", "1", "--c", "1"), 2, "S(2, 1/4, 2)"),
        ],
        ids=["hr", "blocks"],
    )
    def test_exits_2(self, capsys, monkeypatch, argv, wrong_r, row):
        exact_rows = inequality_mod._s_rows

        def wrong_row(*args):
            return (2 * s if r == wrong_r else s for r, s in enumerate(exact_rows(*args), 1))

        # potential imports the kernel by name, so both bindings are patched.
        monkeypatch.setattr(inequality_mod, "_s_rows", wrong_row)
        monkeypatch.setattr(potential_mod, "_s_rows", wrong_row)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"internal consistency failure: {row} = " in err


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
        assert json.loads(out) == min_negative_r(2, "1/2", 10).to_dict()

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

    def test_grid_empty_item_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--n", "2", "--grid", "1/2,,1")
        assert (code, out) == (1, "")
        assert "argument --grid: empty item in the comma-separated list '1/2,,1'" in err

    def test_q_and_grid_conflict(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--n", "2", "--q", "1", "--grid", "1,2")
        assert code == 1

    def test_nonpositive_q(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--n", "2", "--q=-1/2")
        assert code == 1
        assert err == "error: q must be positive, got -1/2\n"


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

    @pytest.mark.parametrize(
        "d,multiple,cutoff",
        [
            (1, 2, 100_000),
            (100_000, 1, 1),
            (1000, 1, 1),
            (1, 2, 10**6),
            (10**6, 1, 1),
            (10**9, 1, 10**9),
        ],
    )
    def test_index_ceiling_edge_is_fast(self, capsys, d, multiple, cutoff):
        # The scan reads each verdict off the sign of h_r and builds no
        # matrix, so the monomial count C(cutoff + d, d) - 1 (once capped
        # at 100,000) does not set its cost; it stops at its witness, by
        # r = 4 for any d, so --rmax does not either.
        argv = ["--d", str(d), "--lambda", str(multiple), "--c", "1", "--cutoff", str(cutoff)]
        argv += ["--rmax", str(RMAX_CEILING)]
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "blocks", *argv)
        assert time.perf_counter() - start < 2
        assert code == 0
        assert out.splitlines()[-1].startswith("first_negative_r = ")

    def test_bad_lambda(self, capsys):
        code, _, err = run_cli(capsys, "blocks", "--d", "1", "--lambda", "0", "--c", "1")
        assert code == 1
        assert err == "error: the multiple lambda must be an integer >= 1, got 0\n"


class TestTimeBudget:
    """Corner requests finish in seconds: at the rmax ceiling the S and
    h_r rows come from the O(n r) kernel, and useries at order 1000 runs
    the ode route on integers N_j of about n^(2j)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("scan", "--n", "2", "--q", "1000", "--rmax", str(RMAX_CEILING)),
            ("hr", "--n", "6", "--k0", "97/3", "--c", "89/7", "--m", "1", "--r", "600"),
            ("useries", "--n", "2", "--k0", "2", "--c", "1", "--order", "1000", "--method", "both"),
        ],
    )
    def test_finishes_within_five_seconds(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert code == 0, err
        assert out


class TestWorkCeilings:
    """A request above a ceiling is a usage error before any work starts;
    these tests never run near a ceiling."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started above a ceiling")

        monkeypatch.setattr(inequality_mod, "_s_rows", refuse)
        monkeypatch.setattr(potential_mod.cmath, "exp", refuse)  # the evaluator's roots
        # Each name where its handler reads it: scan imports its two, the
        # others read them off the lazily loaded module on each call.
        for module, names in (
            (cli_mod, ("min_negative_r", "scan_grid")),
            (potential_mod, ("h_values", "u_coeffs", "u_coeffs_closed", "u_coeffs_ode")),
            (diastasis_mod, ("FubiniStudyBase", "eh_block_scan")),
        ):
            for name in names:
                monkeypatch.setattr(module, name, refuse)

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

    def test_ceilings_themselves_are_accepted(self):
        # The check passes at the ceiling; the refusing kernel then shows
        # that the run would start.
        with pytest.raises(AssertionError, match="work started"):
            main(["scan", "--n", "2", "--q", "3", "--rmax", str(RMAX_CEILING)])

    @pytest.mark.parametrize("method", ["closed", "ode", "both"])
    def test_order_above_ceiling(self, capsys, method):
        argv = ["useries", "--n", "2", "--k0", "2", "--c", "1", "--method", method, "--order"]
        code, out, err = run_cli(capsys, *argv, str(ORDER_CEILING + 1))
        assert (code, out) == (1, "")
        assert err == (
            f"error: --order {ORDER_CEILING + 1} is above the work ceiling"
            f" ORDER_CEILING = {ORDER_CEILING}\n"
        )
        with pytest.raises(AssertionError, match="work started"):
            main([*argv, str(ORDER_CEILING)])

    def test_order_ceiling_admits_the_digit_limit_case(self):
        # The benchmark self-test's known-failing job runs useries at order
        # 1500 to reach CPython's int-to-str digit limit; it must stay
        # below the ceiling until exact rendering lands.
        assert ORDER_CEILING >= 1500

    def test_eval_n_above_ceiling(self, capsys):
        argv = ["useries", "--n", str(EVAL_N_CEILING + 1), "--k0", "1", "--c", "1", "--eval", "1"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (
            f"error: n {EVAL_N_CEILING + 1} is above the work ceiling"
            f" EVAL_N_CEILING = {EVAL_N_CEILING}\n"
        )
        argv[2] = str(EVAL_N_CEILING)
        with pytest.raises(AssertionError, match="work started"):
            main(argv)


# One small successful call per subcommand.
EACH_SUBCOMMAND = [
    ("bell", "--r", "1", "--x", "1"),
    ("useries", "--n", "2", "--k0", "2", "--c", "1", "--order", "1"),
    ("hr", "--n", "2", "--k0", "2", "--c", "1", "--m", "1", "--r", "1"),
    ("scan", "--n", "2", "--q", "1"),
    ("blocks", "--d", "1", "--lambda", "2", "--c", "1"),
]


def _fault(args):
    raise ValueError("an internal fault")


class TestErrorBoundary:
    """``main`` turns a library ``InputError``, and only that, into exit 1."""

    @pytest.mark.parametrize("argv", EACH_SUBCOMMAND, ids=lambda argv: argv[0])
    def test_plain_value_error_propagates(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli_mod, f"_cmd_{argv[0]}", _fault)
        with pytest.raises(ValueError, match="an internal fault") as caught:
            main(list(argv))
        assert type(caught.value) is ValueError
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("argv", EACH_SUBCOMMAND, ids=lambda argv: argv[0])
    def test_handler_is_found_at_call_time(self, capsys, monkeypatch, argv):
        # The shared parser exists before the patch, so only a handler
        # looked up when main is called can see it.
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setattr(cli_mod, f"_cmd_{argv[0]}", _fault)
        with pytest.raises(ValueError, match="an internal fault"):
            main(list(argv))

    def test_refusal_in_a_fresh_process(self):
        argv = [sys.executable, "-m", "calabi_bell", "scan", "--n", "1", "--q", "1"]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "error: n must be an integer >= 2, got 1\n"


def _rational_text(low=-40, high=40):
    """A p/q flag that parses (q >= 1), in or out of the flag's domain."""
    fraction = st.builds(lambda p, q: f"{p}/{q}", st.integers(low, high), st.integers(1, 12))
    return st.one_of(st.integers(low, high).map(str), fraction)


_FORMATS = st.sampled_from(["table", "json", "csv"])
_EVAL_POINTS = ["0", "0.3", "1", "7", "100", "1e3", "12345", "0.25", "-1", "nan", "inf"]


def _flags(**values):
    """``--name=value`` flags: ``=`` keeps a value such as ``-4/3`` from
    reading as an option."""
    return [f"--{name.rstrip('_')}={value}" for name, value in values.items()]


@st.composite
def _argv(draw, command):
    """Flags of one subcommand that argparse accepts, with values drawn in
    and out of the library's domain, so an exit 1 is an ``InputError``."""
    fmt = _flags(format=draw(_FORMATS))
    if command == "bell":
        r = draw(st.integers(-1, 60))
        xs = draw(st.lists(_rational_text(), min_size=1, max_size=max(r, 0) + 2))
        j = draw(st.one_of(st.none(), st.integers(-1, 62)))
        js = _flags(j=j) if j is not None else []
        return ["bell", *_flags(r=r, x=",".join(xs)), *js, *fmt]
    if command in ("useries", "hr"):
        n = draw(st.sampled_from([2, 3, 5, 17, 100, 1000, 2000, 5000, 1, 0]))
        k0, c = draw(_rational_text(-4, 40)), draw(_rational_text(-4, 40))
        base = [command, *_flags(n=n, k0=k0, c=c)]
        if command == "useries" and draw(st.booleans()):
            return [*base, *_flags(eval=draw(st.sampled_from(_EVAL_POINTS))), *fmt]
        if command == "useries":
            method = draw(st.sampled_from(["closed", "ode", "both"]))
            return [*base, *_flags(order=draw(st.integers(0, 60)), method=method), *fmt]
        which = {draw(st.sampled_from(["r", "rmax"])): draw(st.integers(-1, 60))}
        return [*base, *_flags(m=draw(_rational_text(-4, 40)), **which), *fmt]
    if command == "scan":
        qs = draw(st.lists(_rational_text(-4, 200), min_size=1, max_size=3))
        which = _flags(q=qs[0]) if draw(st.booleans()) else _flags(grid=",".join(qs))
        n, rmax = draw(st.integers(0, 30)), draw(st.integers(-1, 60))
        return ["scan", *_flags(n=n), *which, *_flags(rmax=rmax), *fmt]
    values = dict(
        d=draw(st.integers(0, 6)),
        lambda_=draw(st.integers(0, 4)),
        c=draw(_rational_text(-4, 40)),
        rmax=draw(st.integers(-1, 30)),
        cutoff=draw(st.integers(0, 8)),
    )
    return ["blocks", *_flags(**values), *fmt]


_NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", int)(), reason="no int-string digit limit"
)
@pytest.mark.parametrize("flag", ["--q", "--grid"])
def test_rational_past_the_digit_limit_is_a_usage_error(capsys, flag):
    # parse_rational refuses it with InputError, so argparse reports it as
    # a usage error instead of the interpreter's advice to lift the limit.
    code, out, err = run_cli(capsys, "scan", "--n", "2", flag, "1/" + "3" * 5000)
    assert (code, out) == (1, "")
    limit = sys.get_int_max_str_digits()
    message = f"argument {flag}: p or q is past the digit limit {limit}"
    assert err.splitlines()[-1] == f"calabi-bell scan: error: {message}"


class TestExitCodeContract:
    """Every subcommand exits 0 or 1 on any input argparse accepts. Exit 1
    is a refused value: one ``error:`` line and no stdout. Exit 0 prints no
    ``nan`` or ``inf``. Exit 2, a real internal disagreement, is reached only
    by the fault-injection tests. Seeded and capped, so Tier-1 stays fast."""

    @pytest.mark.parametrize("command", ["bell", "useries", "hr", "scan", "blocks"])
    def test_exit_code_contract(self, command):
        @settings(max_examples=40, derandomize=True, deadline=None, database=None)
        @given(_argv(command))
        def check(argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1), (argv, code, err.getvalue())
            if code == 1:
                assert out.getvalue() == "", argv
                assert re.fullmatch(r"error: [^\n]*\n", err.getvalue()), (argv, err.getvalue())
            else:
                assert not _NON_FINITE.search(out.getvalue()), (argv, out.getvalue())

        check()


GOLDEN = json.loads((Path(__file__).parent / "fixtures" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_golden_output(capsys, case):
    """Exit code and exact stdout, recorded before the CLI's rendering was
    consolidated; the fixture is never regenerated."""
    code, out, _ = run_cli(capsys, *case["argv"])
    assert (code, out) == (case["code"], case["stdout"])


# One golden case for each handler that reads a lazily loaded module, each
# run as the first command of a fresh interpreter, where that module's code
# runs in the handler.
FIRST_COMMANDS = {
    "hr": "hr --n 3 --k0 7/3 --c 5/2 --m 1/2 --rmax 6 --format json",
    "useries --method both": "useries --n 3 --k0 2 --c 1 --order 3 --method both --format json",
    "useries --eval": "useries --n 4 --k0 4 --c 1/2 --eval 0.25 --format table",
    "blocks": "blocks --d 1 --lambda 2 --c 1 --format table",
}


@pytest.mark.parametrize("command", FIRST_COMMANDS.values(), ids=FIRST_COMMANDS.keys())
def test_golden_output_as_the_first_command(command):
    (case,) = [case for case in GOLDEN if case["argv"] == command.split()]
    done = subprocess.run(
        [sys.executable, "-m", "calabi_bell", *command.split()], capture_output=True, timeout=60
    )
    assert (done.returncode, done.stdout) == (case["code"], case["stdout"].encode())


CSV_CASES = [case for case in GOLDEN if case["code"] == 0 and "csv" in case["argv"]]


@pytest.mark.parametrize("case", CSV_CASES, ids=lambda case: " ".join(case["argv"]))
def test_csv_lines_read_back_unchanged(capsys, case):
    """Each CSV line is its fields joined by commas, with no quoting: a
    field that needed quoting would change width or text here."""
    _, out, _ = run_cli(capsys, *case["argv"])
    lines = out.splitlines()
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == len(lines) >= 1
    for row, line in zip(rows, lines):
        assert len(row) == len(rows[0])
        assert ",".join(row) == line


JSON_CASES = [case for case in GOLDEN if case["code"] == 0 and "json" in case["argv"]]


class TestJsonWriter:
    """``cli._json`` builds what ``json.dumps(value, indent=2)`` would, with
    the C string encoder on every leaf; checked on every JSON payload of the
    golden fixture and on edge values."""

    @pytest.mark.parametrize("case", JSON_CASES, ids=lambda case: " ".join(case["argv"]))
    def test_golden_payloads(self, case):
        value = json.loads(case["stdout"])
        assert cli_mod._json(value) == json.dumps(value, indent=2) == case["stdout"][:-1]

    def test_negative_first_x_attached_with_equals(self, capsys):
        assert run_cli(capsys, "bell", "--r", "2", "--x=-1,2") == (0, "3\n", "")

    def test_negative_first_x_after_a_space_is_usage_error(self, capsys):
        # argparse takes "-1,2" for a flag, so --x gets no value.
        code, out, err = run_cli(capsys, "bell", "--r", "2", "--x", "-1,2")
        assert (code, out) == (1, "")
        assert [line for line in err.splitlines() if "error:" in line] == [
            "calabi-bell bell: error: argument --x: expected one argument"
        ]

    def test_every_payload_kind_is_covered(self):
        commands = {case["argv"][0] for case in JSON_CASES}
        assert commands == {"bell", "useries", "hr", "scan", "blocks"}
        assert any("--grid" in case["argv"] for case in JSON_CASES)
        assert any("--eval" in case["argv"] for case in JSON_CASES)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            {"blocks": [], "reason": {}},
            [{"n": 2, "q": "1/2", "rows": [{"r": 1, "S": "1/2"}]}, {"n": 2, "q": "3", "rows": []}],
            {"methods_agree": True, "integrality_failure": False, "none": None},
            {"x": 0.5, "u": 1e-300, "big": 1.7976931348623157e308, "zero": -0.0, "inf": math.inf},
            {'quote " and \\': 'quote " backslash \\ tab \t newline \n', "unicode": "λ é ∑ \u2028 😀"},
            {"control": "\x00\x1f\x7f", "ints": [0, -1, 10**40, True], "nested": [[1, [2, []]], {"a": [{}]}]},
            [{"s": "a\tb", "i": 7, "b": True, "n": None, "f": 2.5}, {"s": "", "b": False, "f": -0.0}],
            [{"r": 1, "list": [1, "x", None, {"k": []}], "obj": {"k": [{}], "e": {}, "f": 1e-7}}],
            [{}, [], {"a": {}}, [[]], {"b": []}],
            [{"r": 1, "S": "1/2"}, 2, "three", None, 4.5, True, [5, {}], {"b": [6]}],
            [[{"r": 1}], {"rows": [{"r": 2, "S": "-3"}, {}]}],
            "bare string",
            -7,
            2.5,
            False,
            None,
        ],
    )
    def test_edge_payloads(self, value):
        assert cli_mod._json(value) == json.dumps(value, indent=2)


class TestSharedParser:
    """One parser serves every ``main`` call in a process, and no call
    leaves state in it that changes a later one."""

    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_golden_replay_forward_then_reversed(self, capsys):
        ok = [case for case in GOLDEN if case["code"] == 0]
        usage = [case for case in GOLDEN if case["code"] != 0]
        # Every usage error sits between two successes.
        forward = [case for pair in zip(ok, usage) for case in pair] + ok[len(usage):]
        stderr = {}
        for case in [*forward, *reversed(forward)]:
            code, out, err = run_cli(capsys, *case["argv"])
            assert (code, out) == (case["code"], case["stdout"]), case["argv"]
            assert stderr.setdefault(tuple(case["argv"]), err) == err, case["argv"]

    def test_usage_error_repeats_exactly(self, capsys):
        build_parser.cache_clear()
        first = run_cli(capsys, "scan", "--n", "2", "--q", "1", "--format", "xml")
        assert first[:2] == (1, "")
        assert "invalid choice: 'xml'" in first[2]
        assert run_cli(capsys, "scan", "--n", "2", "--q", "1", "--format", "xml") == first

    def test_one_call_in_a_fresh_process(self):
        argv = ["scan", "--n", "2", "--q", "1/2", "--rmax", "10", "--format", "table"]
        (case,) = [case for case in GOLDEN if case["argv"] == argv]
        done = subprocess.run(
            [sys.executable, "-m", "calabi_bell", *argv[:-2]],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, case["stdout"], "")


class TestParsePaths:
    """A call whose first word names a subcommand is parsed once, by that
    subcommand's parser; any other call by the top-level parser."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["frobnicate"],
            ["--", "scan", "--n", "2", "--q", "1"],
            ["scan", "--n", "2", "--q", "1", "extra"],
            ["blocks", "--d", "1", "--lambda", "2", "--c", "1", "x", "y"],
        ],
    )
    def test_usage_error_exits_one_with_one_error_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert len([line for line in err.splitlines() if "error:" in line]) == 1, err

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["scan", "-h"], ["blocks", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: calabi-bell {argv[0]}" if len(argv) == 2 else "usage: ")

    def test_extra_argument_is_reported_by_the_subcommand(self, capsys):
        code, out, err = run_cli(capsys, "scan", "--n", "2", "--q", "1", "extra")
        assert (code, out) == (1, "")
        assert err.startswith("usage: calabi-bell scan [-h] --n N (--q Q | --grid GRID)")
        assert err.endswith("\ncalabi-bell scan: error: unrecognized arguments: extra\n")

    def test_unknown_command_is_reported_by_the_top_level(self, capsys):
        code, out, err = run_cli(capsys, "frobnicate")
        assert (code, out) == (1, "")
        assert err.startswith("usage: calabi-bell [-h] {bell,useries,hr,scan,blocks} ...\n")
        assert "calabi-bell: error: argument command: invalid choice: 'frobnicate'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--n", "2", "--q", "1/2", "--rmax", "10"],
            ["blocks", "--d", "1", "--lambda", "2", "--c", "1", "--format", "csv"],
            ["bell", "--r", "2", "--x", "-1,2"],
            ["scan", "--n", "2", "--q", "1", "extra"],
            ["hr", "--n", "2", "--k0", "2", "--c", "1", "--m", "1", "--r", "0"],
            [],
            ["frobnicate"],
            ["-h"],
            ["scan", "-h"],
            ["--", "scan", "--n", "2", "--q", "1"],
        ],
    )
    def test_one_parse_per_call(self, capsys, monkeypatch, argv):
        # parse_args runs parse_known_args on its own parser; the top-level
        # parser would run the subcommand's parse_known_args as well.
        build_parser()
        calls = {"parse_args": [], "parse_known_args": []}
        for name in calls:
            original = getattr(cli_mod._Parser, name)

            def spy(self, *args, _name=name, _original=original, **kwargs):
                calls[_name].append(self.prog)
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cli_mod._Parser, name, spy)
        run_cli(capsys, *argv)
        named = argv and argv[0] in {"bell", "useries", "hr", "scan", "blocks"}
        prog = f"calabi-bell {argv[0]}" if named else "calabi-bell"
        assert calls == {"parse_args": [prog], "parse_known_args": [prog]}

    def test_handler_reads_the_command_on_both_paths(self, capsys):
        top = build_parser().parse_args(["scan", "--n", "2", "--q", "1"])
        sub = build_parser().commands["scan"].parse_args(["--n", "2", "--q", "1"])
        assert vars(top) == vars(sub) == {
            "command": "scan", "n": 2, "q": Fraction(1), "grid": None, "rmax": 200, "format": "table"
        }


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


# Every argument set of the golden fixture whose rows the handlers render
# from the library's records, and a few seeded ones.
RECORD_COMMANDS = ("scan", "hr", "blocks")
GOLDEN_RECORD_ARGV = sorted(
    {
        tuple(case["argv"][: case["argv"].index("--format")])
        for case in GOLDEN
        if case["code"] == 0 and case["argv"][0] in RECORD_COMMANDS and "--format" in case["argv"]
    }
)


def _seeded_record_argv(seed: int) -> list[tuple[str, ...]]:
    rng = random.Random(seed)

    def ratio(top: int) -> str:
        return f"{rng.randint(1, top)}/{rng.randint(1, 9)}"

    def count(low: int, high: int) -> str:
        return str(rng.randint(low, high))

    argvs = [("scan", "--n", count(2, 7), "--q", ratio(60), "--rmax", count(5, 90)) for _ in range(3)]
    grid = ",".join(ratio(40) for _ in range(rng.randint(2, 4)))
    argvs.append(("scan", "--n", count(2, 5), "--grid", grid, "--rmax", count(5, 60)))
    for which in ("--rmax", "--r"):
        params = ("--n", count(2, 6), "--k0", ratio(9), "--c", ratio(9), "--m", ratio(9))
        argvs.append(("hr", *params, which, count(1, 40)))
    for _ in range(2):
        blocks = ("--d", count(1, 4), "--lambda", count(1, 3), "--c", ratio(9))
        argvs.append(("blocks", *blocks, "--rmax", count(1, 12)))
    return argvs


def _library_rows(argv: tuple[str, ...]) -> list[tuple[str, ...]]:
    """The value columns of each output row, from the library's own records
    written by ``format_rational``: (q, r, S), (r, h) or (r, exponent,
    scale, verdict)."""
    args = build_parser().parse_args(argv)
    fr = format_rational
    if args.command == "scan":
        reports = scan_grid(args.n, list(args.grid), args.rmax) if args.grid else [
            min_negative_r(args.n, args.q, args.rmax)
        ]
        return [(fr(report.q), str(r), fr(s)) for report in reports for r, s in report.rows]
    if args.command == "hr":
        params = potential_mod.CalabiParams(args.n, args.k0, args.c)
        values = potential_mod.h_values(params, args.m, args.r or args.rmax)
        indexed = [(args.r, values[-1])] if args.r else enumerate(values, 1)
        return [(str(r), fr(h)) for r, h in indexed]
    base = diastasis_mod.FubiniStudyBase(args.d, args.multiple)
    report = diastasis_mod.eh_block_scan(base, args.c, args.rmax, args.cutoff)
    return [(str(b.r), fr(b.exponent), fr(b.scale), b.verdict) for b in report.blocks]


def _tab_rows(table: str, header: str) -> list[tuple[str, ...]]:
    """The tab-separated rows under each ``header`` line of a table."""
    rows, inside = [], False
    for line in table.splitlines():
        if line == header:
            inside = True
        elif inside and "\t" in line:
            rows.append(tuple(line.split("\t")))
        else:
            inside = False
    return rows


@pytest.mark.parametrize(
    "argv",
    GOLDEN_RECORD_ARGV + _seeded_record_argv(29) + _seeded_record_argv(30),
    ids=" ".join,
)
def test_table_and_csv_rows_equal_the_json_payload(argv):
    """Table and CSV lines are written from the library's records, JSON
    from its payload: the value columns of all three, row for row, equal
    ``format_rational`` of the library's values."""
    outs = {}
    for fmt in ("table", "json", "csv"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--format", fmt]) == 0
        outs[fmt] = out.getvalue()
    expected = _library_rows(argv)
    payload = json.loads(outs["json"])
    csv_rows = [tuple(row) for row in csv.reader(io.StringIO(outs["csv"]))][1:]
    command, grid, single = argv[0], "--grid" in argv, argv[0] == "hr" and "--r" in argv
    if command == "scan":
        payloads = payload if grid else [payload]
        json_rows = [(p["q"], str(row["r"]), row["S"]) for p in payloads for row in p["rows"]]
        assert _tab_rows(outs["table"], "r\tS") == [row[1:] for row in expected]
        heads = [line for line in outs["table"].splitlines() if line.startswith("n = ")]
        assert [head.split("  ")[1] for head in heads] == [f"q = {p['q']}" for p in payloads]
        assert csv_rows == (expected if grid else [row[1:] for row in expected])
    elif command == "hr":
        json_rows = [(str(v["r"]), v["h"]) for v in payload["values"]]
        table = outs["table"].splitlines()
        assert (table if single else _tab_rows(outs["table"], "r\th")) == (
            [h for _, h in expected] if single else expected
        )
        assert csv_rows == expected
    else:
        blocks = payload.get("blocks", [])
        json_rows = [(str(b["r"]), b["exponent"], b["scale"], b["verdict"]) for b in blocks]
        assert _tab_rows(outs["table"], "r\texponent\tscale\tverdict") == expected
        assert csv_rows == expected
    assert json_rows == expected
    assert expected or (command == "blocks" and payload["integrality_failure"])


def test_record_argv_cover_every_render_path():
    argvs = GOLDEN_RECORD_ARGV + _seeded_record_argv(29) + _seeded_record_argv(30)
    assert {argv[0] for argv in argvs} == set(RECORD_COMMANDS)
    assert any("--grid" in argv for argv in argvs) and any("--q" in argv for argv in argvs)
    hr_flags = {argv[-2] for argv in argvs if argv[0] == "hr"}
    assert hr_flags == {"--r", "--rmax"}
    failures = [argv for argv in argvs if argv[0] == "blocks" and not _library_rows(argv)]
    assert failures and len(failures) < sum(argv[0] == "blocks" for argv in argvs)
