"""Command-line interface.

Subcommands mirror the library layers: ``bell`` (one polynomial value),
``useries`` (potential coefficients by both routes, or a numeric point
check), ``hr`` (block-scale constants), ``scan`` (sign scan over r, with
a ``--grid`` variant that scans several q in turn), ``blocks`` (the
projective-space block demonstration).

Each handler validates its input, computes, and builds its output once:
a JSON payload (for ``scan`` and ``blocks``, the report's ``to_dict()``)
whose rendered strings the CSV rows and the table lines reuse. One
writer, ``_emit``, prints whichever of the three ``--format`` asks for.
Exact quantities are printed as ``p/q``. Exit codes: 0 success, 1 usage
error (bad flags, malformed rationals, out-of-range values, a request
above a work ceiling), 2 internal consistency failure (the cross-checking
machinery caught a disagreement; this should never happen and is worth a
bug report).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from collections.abc import Sequence
from fractions import Fraction

from .bell import BellConsistencyError, complete_bell, partial_bell_recurrence
from .diastasis import FubiniStudyBase, eh_block_scan
from .inequality import min_negative_r, scan_grid
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

# Work ceilings, checked before any work starts: the largest r that
# ``scan --rmax``, ``hr --r/--rmax`` and ``blocks --rmax`` accept, and the
# largest monomial count C(cutoff + d, d) - 1 that ``blocks`` accepts.
RMAX_CEILING = 1000
INDEX_CEILING = 100_000


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


def _require_positive(value: Fraction, name: str) -> None:
    if value <= 0:
        raise UsageError(f"{name} must be positive, got {format_rational(value)}")


def _check_rmax(value: int, name: str) -> None:
    if value > RMAX_CEILING:
        raise UsageError(f"{name} {value} is above the work ceiling RMAX_CEILING = {RMAX_CEILING}")


def _check_index_count(d: int, cutoff: int) -> None:
    """C(cutoff + d, d) - 1 <= INDEX_CEILING, by a product that stops as
    soon as the count passes the ceiling (it grows with every factor)."""
    count = 1
    for k in range(1, min(d, cutoff) + 1):
        count = count * (max(d, cutoff) + k) // k
        if count - 1 > INDEX_CEILING:
            raise UsageError(
                f"--d {d} --cutoff {cutoff} gives more than {INDEX_CEILING} monomial indices,"
                f" above the work ceiling INDEX_CEILING = {INDEX_CEILING}"
            )


def _emit(fmt: str, payload: dict | list, columns: list[str], rows: list, table: list[str]) -> int:
    """Write a command's output once, in the chosen format: the JSON
    ``payload``, the CSV of ``columns`` and ``rows``, or the ``table`` lines."""
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)
    else:
        text = json.dumps(payload, indent=2) if fmt == "json" else "\n".join(table)
        sys.stdout.write(text + "\n")
    return 0


def _tab(columns: list[str], rows: list[list]) -> list[str]:
    """Tab-separated table lines: a header of ``columns``, then the rows."""
    return ["\t".join(map(str, line)) for line in [columns, *rows]]


# -- bell -----------------------------------------------------------------


def _cmd_bell(args) -> int:
    r, j = args.r, args.j
    if r < 1:
        raise UsageError(f"--r must be >= 1, got {r}")
    if j is not None and not 1 <= j <= r:
        raise UsageError(f"--j must satisfy 1 <= j <= r, got j={j}, r={r}")
    needed = r if j is None else r - j + 1
    if len(args.x) < needed:
        raise UsageError(f"--x needs at least {needed} values here, got {len(args.x)}")
    if j is not None:
        value = format_rational(partial_bell_recurrence(r, j, args.x))
        payload = {"kind": "partial", "r": r, "j": j}
    else:
        value = format_rational(complete_bell(r, args.x))
        payload = {"kind": "complete", "r": r}
    payload.update(x=[format_rational(v) for v in args.x], value=value)
    rows = [[r, "" if j is None else j, value]]
    return _emit(args.format, payload, ["r", "j", "value"], rows, [value])


# -- useries ---------------------------------------------------------------


def _params_from(args) -> CalabiParams:
    if args.n < 2:
        raise UsageError(f"--n must be >= 2, got {args.n}")
    _require_positive(args.k0, "--k0")
    _require_positive(args.c, "--c")
    return CalabiParams(args.n, args.k0, args.c)


def _params_payload(params: CalabiParams) -> dict:
    return {"n": params.n, "k0": format_rational(params.k0), "c": format_rational(params.c)}


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
    payload = {**_params_payload(params), "order": args.order, "method": args.method}
    payload["values"] = rendered
    table = [", ".join(rendered)]
    if args.method == "both":
        payload["methods_agree"] = True
        table.append("methods agree")
    return _emit(args.format, payload, ["j", "a"], list(enumerate(rendered, 1)), table)


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
    values = {
        "x": x,
        "u": value,
        "imaginary_residue": residue,
        "horizontal_factor": report.horizontal_factor,
        "fiber_factor": report.fiber_factor,
        "ode_residual": report.ode_residual,
    }
    table = [f"u({x!r}) = {value!r}"]
    table.extend(f"{name} = {v!r}" for name, v in list(values.items())[2:])
    payload = {**_params_payload(params), **values}
    return _emit(args.format, payload, list(values), [list(values.values())], table)


# -- hr ---------------------------------------------------------------------


def _cmd_hr(args) -> int:
    params = _params_from(args)
    _require_positive(args.m, "--m")
    r_max = args.r if args.r is not None else args.rmax
    if r_max < 1:
        raise UsageError(f"--r/--rmax must be >= 1, got {r_max}")
    _check_rmax(r_max, "--r/--rmax")
    values = h_values(params, args.m, r_max)
    if args.r is not None:
        values = values[-1:]
    rows = [[item.r, format_rational(item.value)] for item in values]
    payload = {**_params_payload(params), "m": format_rational(args.m)}
    payload["values"] = [{"r": r, "h": h} for r, h in rows]
    table = [rows[0][1]] if args.r is not None else _tab(["r", "h"], rows)
    return _emit(args.format, payload, ["r", "h"], rows, table)


# -- scan --------------------------------------------------------------------


def _scan_table(scan: dict) -> list[str]:
    """The table lines of one ``ScanReport.to_dict()``."""
    lines = [f"n = {scan['n']}  q = {scan['q']}  r_max = {scan['r_max']}"]
    lines.extend(_tab(["r", "S"], [[row["r"], row["S"]] for row in scan["rows"]]))
    none = f"none (no sign failure through r_max = {scan['r_max']})"
    return [*lines, f"min_negative_r = {scan.get('min_negative_r', none)}"]


def _cmd_scan(args) -> int:
    if args.n < 2:
        raise UsageError(f"--n must be >= 2, got {args.n}")
    if args.rmax < 1:
        raise UsageError(f"--rmax must be >= 1, got {args.rmax}")
    _check_rmax(args.rmax, "--rmax")
    if args.grid is not None:
        for q in args.grid:
            _require_positive(q, "--grid entries")
        scans = [report.to_dict() for report in scan_grid(args.n, list(args.grid), args.rmax)]
        rows = [[scan["q"], row["r"], row["S"]] for scan in scans for row in scan["rows"]]
        table = "\n\n".join("\n".join(_scan_table(scan)) for scan in scans)
        return _emit(args.format, scans, ["q", "r", "S"], rows, [table])
    _require_positive(args.q, "--q")
    scan = min_negative_r(args.n, args.q, args.rmax).to_dict()
    rows = [[row["r"], row["S"]] for row in scan["rows"]]
    return _emit(args.format, scan, ["r", "S"], rows, _scan_table(scan))


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
    _check_rmax(args.rmax, "--rmax")
    _check_index_count(args.d, args.cutoff)
    scan = eh_block_scan(FubiniStudyBase(args.d, args.multiple), args.c, args.rmax, args.cutoff)
    payload = scan.to_dict()
    columns = ["r", "exponent", "scale", "verdict"]
    rows = [[block[name] for name in columns] for block in payload.get("blocks", [])]
    table = [
        f"d = {payload['d']}  lambda = {payload['lambda']}  k0 = {payload['k0']}"
        f"  c = {payload['c']}  cutoff = {payload['cutoff']}"
    ]
    if scan.integrality_failure:
        table.append(f"integrality failure: {scan.failure_reason}")
    else:
        table.extend(_tab(columns, rows))
        witness = scan.first_negative_r
        if witness is None:
            witness = f"none (all scales non-negative through r_max = {scan.r_max})"
        table.append(f"first_negative_r = {witness}")
    return _emit(args.format, payload, columns, rows, table)


# -- wiring --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="calabi-bell",
        description="Exact Bell-polynomial machinery for Ricci-flat metrics of Calabi type.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_bell = subparsers.add_parser("bell", help="one partial or complete Bell polynomial value")
    p_bell.add_argument("--r", type=int, required=True, help="total index r >= 1")
    p_bell.add_argument("--j", type=int, help="block count; omit for the complete polynomial")
    p_bell.add_argument(
        "--x", type=_rational_list_arg, required=True, help="comma-separated rationals x_1,x_2,..."
    )
    p_bell.set_defaults(handler=_cmd_bell)

    p_useries = subparsers.add_parser(
        "useries", help="potential derivatives at 0, or a numeric point evaluation"
    )
    p_hr = subparsers.add_parser("hr", help="block-scale constants h_r")
    for p in (p_useries, p_hr):
        p.add_argument("--n", type=int, required=True, help="base dimension, >= 2")
        p.add_argument(
            "--k0", type=_rational_arg, required=True, help="Einstein normalization, p/q > 0"
        )
        p.add_argument("--c", type=_rational_arg, required=True, help="scale u'(0), p/q > 0")
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
    p_useries.set_defaults(handler=_cmd_useries)

    p_hr.add_argument("--m", type=_rational_arg, required=True, help="twist multiple, p/q > 0")
    which = p_hr.add_mutually_exclusive_group(required=True)
    which.add_argument("--r", type=int, help="a single r")
    which.add_argument("--rmax", type=int, help="all of r = 1..rmax")
    p_hr.set_defaults(handler=_cmd_hr)

    p_scan = subparsers.add_parser("scan", help="first negative alternating Bell sum")
    p_scan.add_argument("--n", type=int, required=True, help="base dimension, >= 2")
    q_or_grid = p_scan.add_mutually_exclusive_group(required=True)
    q_or_grid.add_argument("--q", type=_rational_arg, help="twist ratio m/k0, p/q > 0")
    q_or_grid.add_argument(
        "--grid", type=_rational_list_arg, help="comma-separated q values, scanned in turn"
    )
    p_scan.add_argument("--rmax", type=int, default=200, help="scan cap (default 200)")
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
    p_blocks.add_argument(
        "--cutoff", type=int, default=6, help="monomial degree cutoff (default 6)"
    )
    p_blocks.set_defaults(handler=_cmd_blocks)

    for p in subparsers.choices.values():
        p.add_argument("--format", choices=FORMATS, default="table", help="output format")

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
