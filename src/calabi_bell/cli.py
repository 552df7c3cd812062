"""Command-line interface.

Subcommands mirror the library layers: ``bell`` (one polynomial value),
``useries`` (potential coefficients by both routes, or a numeric point
check), ``hr`` (block-scale constants), ``scan`` (sign scan over r, with
a ``--grid`` variant that scans several q in turn), ``blocks`` (the
projective-space block demonstration).

Exact quantities are printed as ``p/q``. Exit codes: 0 success, 1 usage
error (bad flags, malformed rationals, out-of-range values), 2 internal
consistency failure (the cross-checking machinery caught a disagreement;
this should never happen and is worth a bug report).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from collections.abc import Sequence
from fractions import Fraction

from .bell import BellConsistencyError, complete_bell, partial_bell_recurrence
from .diastasis import FubiniStudyBase, eh_block_scan
from .inequality import ScanReport, min_negative_r, scan_grid
from .potential import (
    BranchResidueError,
    CalabiParams,
    ClosedFormEvaluator,
    CoefficientMethodMismatch,
    h_values,
    u_coeffs,
    u_coeffs_closed,
    u_coeffs_ode,
)
from .rationals import format_rational, parse_rational

__all__ = ["main", "build_parser"]

FORMATS = ("table", "json", "csv")


class UsageError(Exception):
    """Invalid input caught after argparse; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors remapped from exit code 2 to 1."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _rational_list_arg(text: str) -> tuple[Fraction, ...]:
    items = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected a comma-separated list of rationals")
    return tuple(_rational_arg(piece) for piece in items)


def _require_positive(value: Fraction, name: str) -> Fraction:
    if value <= 0:
        raise UsageError(f"{name} must be positive, got {format_rational(value)}")
    return value


def _print(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _print_json(payload) -> None:
    _print(json.dumps(payload, indent=2))


def _csv_text(header: list[str], rows: list[list]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# -- bell -----------------------------------------------------------------


def _cmd_bell(args) -> int:
    r, j = args.r, args.j
    if r < 1:
        raise UsageError(f"--r must be >= 1, got {r}")
    if j is not None:
        if not 1 <= j <= r:
            raise UsageError(f"--j must satisfy 1 <= j <= r, got j={j}, r={r}")
        needed = r - j + 1
    else:
        needed = r
    if len(args.x) < needed:
        raise UsageError(f"--x needs at least {needed} values here, got {len(args.x)}")
    if j is not None:
        value = partial_bell_recurrence(r, j, args.x)
        kind = "partial"
    else:
        value = complete_bell(r, args.x)
        kind = "complete"
    if args.format == "json":
        payload = {"kind": kind, "r": r}
        if j is not None:
            payload["j"] = j
        payload["x"] = [format_rational(v) for v in args.x]
        payload["value"] = format_rational(value)
        _print_json(payload)
    elif args.format == "csv":
        _print(_csv_text(["r", "j", "value"], [[r, "" if j is None else j, format_rational(value)]]))
    else:
        _print(format_rational(value))
    return 0


# -- useries ---------------------------------------------------------------


def _params_from(args) -> CalabiParams:
    if args.n < 2:
        raise UsageError(f"--n must be >= 2, got {args.n}")
    _require_positive(args.k0, "--k0")
    _require_positive(args.c, "--c")
    return CalabiParams(args.n, args.k0, args.c)


def _cmd_useries(args) -> int:
    params = _params_from(args)
    if args.eval_point is not None:
        return _useries_eval(params, args)
    if args.order is None:
        raise UsageError("--order is required unless --eval is given")
    if args.order < 1:
        raise UsageError(f"--order must be >= 1, got {args.order}")
    if args.method == "closed":
        seq = u_coeffs_closed(params, args.order)
    elif args.method == "ode":
        seq = u_coeffs_ode(params, args.order)
    else:
        seq = u_coeffs(params, args.order)
    rendered = [format_rational(v) for v in seq.values]
    if args.format == "json":
        payload = {
            "n": params.n,
            "k0": format_rational(params.k0),
            "c": format_rational(params.c),
            "order": args.order,
            "method": args.method,
            "values": rendered,
        }
        if args.method == "both":
            payload["methods_agree"] = True
        _print_json(payload)
    elif args.format == "csv":
        _print(_csv_text(["j", "a"], [[j + 1, rendered[j]] for j in range(len(rendered))]))
    else:
        _print(", ".join(rendered))
        if args.method == "both":
            _print("methods agree")
    return 0


def _useries_eval(params: CalabiParams, args) -> int:
    x = args.eval_point
    if not (math.isfinite(x) and x >= 0):
        raise UsageError(f"--eval point must be a finite number >= 0, got {x}")
    evaluator = ClosedFormEvaluator(params)
    try:
        value, residue = evaluator.u_with_residue(x)
        report = evaluator.condition_report(x)
    except ValueError as exc:
        raise UsageError(f"--eval point {x!r} is out of range: {exc}") from None
    if args.format == "json":
        _print_json(
            {
                "n": params.n,
                "k0": format_rational(params.k0),
                "c": format_rational(params.c),
                "x": x,
                "u": value,
                "imaginary_residue": residue,
                "horizontal_factor": report.horizontal_factor,
                "fiber_factor": report.fiber_factor,
                "ode_residual": report.ode_residual,
            }
        )
    elif args.format == "csv":
        _print(
            _csv_text(
                ["x", "u", "imaginary_residue", "horizontal_factor", "fiber_factor", "ode_residual"],
                [[x, value, residue, report.horizontal_factor, report.fiber_factor, report.ode_residual]],
            )
        )
    else:
        _print(f"u({x!r}) = {value!r}")
        _print(f"imaginary_residue = {residue!r}")
        _print(f"horizontal_factor = {report.horizontal_factor!r}")
        _print(f"fiber_factor = {report.fiber_factor!r}")
        _print(f"ode_residual = {report.ode_residual!r}")
    return 0


# -- hr ---------------------------------------------------------------------


def _cmd_hr(args) -> int:
    params = _params_from(args)
    _require_positive(args.m, "--m")
    r_max = args.r if args.r is not None else args.rmax
    if r_max < 1:
        raise UsageError(f"--r/--rmax must be >= 1, got {r_max}")
    values = h_values(params, args.m, r_max)
    if args.r is not None:
        values = values[-1:]
    if args.format == "json":
        _print_json(
            {
                "n": params.n,
                "k0": format_rational(params.k0),
                "c": format_rational(params.c),
                "m": format_rational(args.m),
                "values": [{"r": item.r, "h": format_rational(item.value)} for item in values],
            }
        )
    elif args.format == "csv":
        _print(_csv_text(["r", "h"], [[item.r, format_rational(item.value)] for item in values]))
    elif args.r is not None:
        _print(format_rational(values[0].value))
    else:
        _print("r\th")
        for item in values:
            _print(f"{item.r}\t{format_rational(item.value)}")
    return 0


# -- scan --------------------------------------------------------------------


def _scan_table(report: ScanReport) -> str:
    lines = [
        f"n = {report.n}  q = {format_rational(report.q)}  r_max = {report.r_max}",
        "r\tS",
    ]
    lines.extend(f"{r}\t{format_rational(s)}" for r, s in report.rows)
    if report.min_negative_r is not None:
        lines.append(f"min_negative_r = {report.min_negative_r}")
    else:
        lines.append(f"min_negative_r = none (no sign failure through r_max = {report.r_max})")
    return "\n".join(lines) + "\n"


def _cmd_scan(args) -> int:
    if args.n < 2:
        raise UsageError(f"--n must be >= 2, got {args.n}")
    if args.rmax < 1:
        raise UsageError(f"--rmax must be >= 1, got {args.rmax}")
    if args.grid is not None:
        for q in args.grid:
            _require_positive(q, "--grid entries")
        reports = scan_grid(args.n, list(args.grid), args.rmax)
        if args.format == "json":
            _print_json([report.to_dict() for report in reports])
        elif args.format == "csv":
            rows = [
                [format_rational(report.q), r, format_rational(s)]
                for report in reports
                for r, s in report.rows
            ]
            _print(_csv_text(["q", "r", "S"], rows))
        else:
            _print("\n".join(_scan_table(report) for report in reports))
        return 0
    _require_positive(args.q, "--q")
    report = min_negative_r(args.n, args.q, args.rmax)
    if args.format == "json":
        _print(report.to_json())
    elif args.format == "csv":
        _print(report.to_csv())
    else:
        _print(_scan_table(report))
    return 0


# -- blocks -------------------------------------------------------------------


def _cmd_blocks(args) -> int:
    if args.d < 1:
        raise UsageError(f"--d must be >= 1, got {args.d}")
    if args.multiple < 1:
        raise UsageError(f"--lambda must be >= 1, got {args.multiple}")
    _require_positive(args.c, "--c")
    if args.rmax < 0:
        raise UsageError(f"--rmax must be >= 0, got {args.rmax}")
    if args.cutoff < 1:
        raise UsageError(f"--cutoff must be >= 1, got {args.cutoff}")
    base = FubiniStudyBase(args.d, args.multiple)
    report = eh_block_scan(base, args.c, args.rmax, args.cutoff)
    if args.format == "json":
        _print(report.to_json())
        return 0
    if args.format == "csv":
        rows = [
            [block.r, format_rational(block.base_matrix.exponent), format_rational(block.scale), block.verdict]
            for block in report.blocks
        ]
        _print(_csv_text(["r", "exponent", "scale", "verdict"], rows))
        return 0
    header = (
        f"d = {report.d}  lambda = {report.multiple}  k0 = {format_rational(report.k0)}"
        f"  c = {format_rational(report.c)}  cutoff = {report.cutoff}"
    )
    _print(header)
    if report.integrality_failure:
        _print(f"integrality failure: {report.failure_reason}")
        return 0
    _print("r\texponent\tscale\tverdict")
    for block in report.blocks:
        _print(
            f"{block.r}\t{format_rational(block.base_matrix.exponent)}"
            f"\t{format_rational(block.scale)}\t{block.verdict}"
        )
    if report.first_negative_r is not None:
        _print(f"first_negative_r = {report.first_negative_r}")
    else:
        _print(f"first_negative_r = none (all scales non-negative through r_max = {report.r_max})")
    return 0


# -- wiring --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="calabi-bell",
        description="Exact Bell-polynomial machinery for Ricci-flat metrics of Calabi type.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=FORMATS, default="table", help="output format")

    p_bell = subparsers.add_parser("bell", help="one partial or complete Bell polynomial value")
    p_bell.add_argument("--r", type=int, required=True, help="total index r >= 1")
    p_bell.add_argument("--j", type=int, help="block count; omit for the complete polynomial")
    p_bell.add_argument(
        "--x", type=_rational_list_arg, required=True, help="comma-separated rationals x_1,x_2,..."
    )
    add_format(p_bell)
    p_bell.set_defaults(handler=_cmd_bell)

    p_useries = subparsers.add_parser(
        "useries", help="potential derivatives at 0, or a numeric point evaluation"
    )
    p_useries.add_argument("--n", type=int, required=True, help="base dimension, >= 2")
    p_useries.add_argument("--k0", type=_rational_arg, required=True, help="Einstein normalization, p/q > 0")
    p_useries.add_argument("--c", type=_rational_arg, required=True, help="scale u'(0), p/q > 0")
    p_useries.add_argument("--order", type=int, help="number of derivatives a_1..a_order")
    p_useries.add_argument(
        "--method",
        choices=("closed", "ode", "both"),
        default="both",
        help="closed-form product, forward substitution, or both with exact comparison",
    )
    p_useries.add_argument(
        "--eval",
        dest="eval_point",
        type=float,
        help="evaluate u and the defining condition at this x >= 0 instead",
    )
    add_format(p_useries)
    p_useries.set_defaults(handler=_cmd_useries)

    p_hr = subparsers.add_parser("hr", help="block-scale constants h_r")
    p_hr.add_argument("--n", type=int, required=True, help="base dimension, >= 2")
    p_hr.add_argument("--k0", type=_rational_arg, required=True, help="Einstein normalization, p/q > 0")
    p_hr.add_argument("--c", type=_rational_arg, required=True, help="scale u'(0), p/q > 0")
    p_hr.add_argument("--m", type=_rational_arg, required=True, help="twist multiple, p/q > 0")
    which = p_hr.add_mutually_exclusive_group(required=True)
    which.add_argument("--r", type=int, help="a single r")
    which.add_argument("--rmax", type=int, help="all of r = 1..rmax")
    add_format(p_hr)
    p_hr.set_defaults(handler=_cmd_hr)

    p_scan = subparsers.add_parser("scan", help="first negative alternating Bell sum")
    p_scan.add_argument("--n", type=int, required=True, help="base dimension, >= 2")
    q_or_grid = p_scan.add_mutually_exclusive_group(required=True)
    q_or_grid.add_argument("--q", type=_rational_arg, help="twist ratio m/k0, p/q > 0")
    q_or_grid.add_argument(
        "--grid", type=_rational_list_arg, help="comma-separated q values, scanned in turn"
    )
    p_scan.add_argument("--rmax", type=int, default=200, help="scan cap (default 200)")
    add_format(p_scan)
    p_scan.set_defaults(handler=_cmd_scan)

    p_blocks = subparsers.add_parser(
        "blocks", help="diastasis block scan over a projective-space base"
    )
    p_blocks.add_argument("--d", type=int, required=True, help="projective space dimension, >= 1")
    p_blocks.add_argument(
        "--lambda", dest="multiple", type=int, required=True, help="integrality multiple, >= 1"
    )
    p_blocks.add_argument("--c", type=_rational_arg, required=True, help="scale u'(0), p/q > 0")
    p_blocks.add_argument("--rmax", type=int, default=12, help="block scan cap (default 12)")
    p_blocks.add_argument("--cutoff", type=int, default=6, help="monomial degree cutoff (default 6)")
    add_format(p_blocks)
    p_blocks.set_defaults(handler=_cmd_blocks)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CoefficientMethodMismatch, BranchResidueError, BellConsistencyError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
