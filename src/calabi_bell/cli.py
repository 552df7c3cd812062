"""Command-line interface.

Subcommands mirror the library layers: ``bell`` (one polynomial value),
``useries`` (potential coefficients by both routes, or a numeric point
check), ``hr`` (block-scale constants), ``scan`` (sign scan over r, with
a ``--grid`` variant that scans several q in turn), ``blocks`` (the
projective-space block demonstration). Importing it runs only ``rationals``
and ``inequality``: handlers read the lazy ``bell``, ``potential`` and
``diastasis`` where they use them (``scan`` runs ``bell`` only to re-check
r <= 40 or for ``--grid``), and only JSON output imports ``json``.

Each handler builds its JSON payload once (for ``scan`` and ``blocks``,
the report's ``to_dict()``), the one source of rendered strings, and hands
it to ``_emit`` with generators of the CSV rows and the table lines over
it; only the ``--format`` asked for is rendered. Exact quantities are
printed as ``p/q``.

One parser serves a process: built on the first ``main`` call, never at
import. ``main`` finds ``_cmd_<subcommand>`` by name on each call.

The handlers check only the CLI's own rules, ``RMAX_CEILING``,
``ORDER_CEILING`` and "``--order`` unless ``--eval``"; every rule on a
value belongs to the library, which raises ``rationals.InputError``
before any work. Exit codes: 0 success, 1 usage error (bad flags,
malformed rationals, an ``InputError``), 2 internal consistency failure
(the cross-checking machinery caught a disagreement; worth a bug
report). Any other exception is a fault and propagates.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from . import bell, diastasis, potential
from .inequality import min_negative_r, scan_grid
from .rationals import BellConsistencyError, BranchResidueError, CoefficientMethodMismatch
from .rationals import InputError, format_rational, parse_rational

FORMATS = ("table", "json", "csv")

# Work ceilings, checked before any work starts: the largest r that
# ``scan --rmax``, ``hr --r/--rmax`` and ``blocks --rmax`` accept, and the
# largest ``useries --order`` (about 3 s for both routes at n = 2).
RMAX_CEILING = 1000
ORDER_CEILING = 2000


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
    pieces = text.split(",")
    if not all(piece.strip() for piece in pieces):
        raise argparse.ArgumentTypeError(f"empty item in the comma-separated list {text!r}")
    return tuple(_rational_arg(piece) for piece in pieces)


def _check_ceiling(value: int, name: str, ceiling: str = "RMAX_CEILING") -> None:
    """Refuse ``value`` above the module constant named ``ceiling``."""
    limit = globals()[ceiling]
    if value > limit:
        raise InputError(f"{name} {value} is above the work ceiling {ceiling} = {limit}")


def _emit(fmt: str, payload, columns: list[str], rows: Iterable, table: Iterable[str]) -> int:
    """Write a command's output once, in the chosen format: the JSON
    ``payload`` (dict or list), CSV lines of ``columns`` and ``rows`` (no
    field needs quoting), or the ``table`` lines. ``rows`` and ``table``
    may be generators, even one shared: only the chosen format reads them."""
    if fmt == "csv":
        table = (",".join(map(str, row)) for row in (columns, *rows))
    sys.stdout.write((_json(payload) if fmt == "json" else "\n".join(table)) + "\n")
    return 0


def _json(payload) -> str:
    """``json.dumps(payload, indent=2)`` without its pure-Python encoder:
    containers are indented here, str leaves go through the C
    ``encode_basestring_ascii`` and ints through ``int.__repr__``."""
    import json.encoder
    esc = json.encoder.encode_basestring_ascii

    def render(value, indent: str) -> str:
        if isinstance(value, str):
            return esc(value)
        if type(value) is int:
            return int.__repr__(value)
        if not value or not isinstance(value, (dict, list)):
            return json.dumps(value)
        inner = indent + "  "
        if isinstance(value, dict):
            items = [f"{esc(k)}: {render(v, inner)}" for k, v in value.items()]
            return "{" + inner + f",{inner}".join(items) + indent + "}"
        return "[" + inner + f",{inner}".join([render(v, inner) for v in value]) + indent + "]"

    return render(payload, "\n")


def _tab(columns: list[str], rows: Iterable[list]) -> Iterator[str]:
    """Tab-separated table lines: a header of ``columns``, then the rows."""
    yield "\t".join(columns)
    yield from ("\t".join(map(str, line)) for line in rows)


# -- bell -----------------------------------------------------------------


def _cmd_bell(args) -> int:
    r, j = args.r, args.j
    if j is not None:
        value = format_rational(bell.partial_bell_recurrence(r, j, args.x))
        payload = {"kind": "partial", "r": r, "j": j}
    else:
        value = format_rational(bell.complete_bell(r, args.x))
        payload = {"kind": "complete", "r": r}
    payload.update(x=[format_rational(v) for v in args.x], value=value)
    rows = [[r, "" if j is None else j, value]]
    return _emit(args.format, payload, ["r", "j", "value"], rows, [value])


# -- useries ---------------------------------------------------------------


def _params_payload(params: potential.CalabiParams) -> dict:
    return {"n": params.n, "k0": format_rational(params.k0), "c": format_rational(params.c)}


def _cmd_useries(args) -> int:
    params = potential.CalabiParams(args.n, args.k0, args.c)
    if args.eval_point is not None:
        return _useries_eval(params, args)
    if args.order is None:
        raise InputError("--order is required unless --eval is given")
    _check_ceiling(args.order, "--order", "ORDER_CEILING")
    route = {"closed": "u_coeffs_closed", "ode": "u_coeffs_ode", "both": "u_coeffs"}[args.method]
    seq = getattr(potential, route)(params, args.order)
    rendered = [format_rational(v) for v in seq.values]
    payload = {**_params_payload(params), "order": args.order, "method": args.method}
    payload["values"] = rendered
    lines = [rendered]  # each table line joins its items with ", "
    if args.method == "both":
        payload["methods_agree"] = True
        lines.append(["methods agree"])
    return _emit(args.format, payload, ["j", "a"], enumerate(rendered, 1), map(", ".join, lines))


def _useries_eval(params: potential.CalabiParams, args) -> int:
    x = args.eval_point
    evaluator = potential.ClosedFormEvaluator(params)
    value, residue = evaluator.u_with_residue(x)
    report = evaluator.condition_report(x)
    values = {
        "x": x,
        "u": value,
        "imaginary_residue": residue,
        "horizontal_factor": report.horizontal_factor,
        "fiber_factor": report.fiber_factor,
        "ode_residual": report.ode_residual,
    }
    table = (
        f"u({x!r}) = {v!r}" if k == "u" else f"{k} = {v!r}" for k, v in values.items() if k != "x"
    )
    payload = {**_params_payload(params), **values}
    return _emit(args.format, payload, list(values), [values.values()], table)


# -- hr ---------------------------------------------------------------------


def _cmd_hr(args) -> int:
    params = potential.CalabiParams(args.n, args.k0, args.c)
    r_max = args.r if args.r is not None else args.rmax
    _check_ceiling(r_max, "--r/--rmax")
    values = potential.h_values(params, args.m, r_max)
    indexed = [(r_max, values[-1])] if args.r is not None else enumerate(values, 1)
    hs = [{"r": r, "h": format_rational(h)} for r, h in indexed]
    payload = {**_params_payload(params), "m": format_rational(args.m), "values": hs}
    rows = ([h["r"], h["h"]] for h in hs)
    table = (h["h"] for h in hs) if args.r is not None else _tab(["r", "h"], rows)
    return _emit(args.format, payload, ["r", "h"], rows, table)


# -- scan --------------------------------------------------------------------


def _scan_table(scans: list[dict]) -> Iterator[str]:
    """The table lines of ``ScanReport.to_dict()`` payloads, a blank line between two."""
    for i, scan in enumerate(scans):
        if i:
            yield ""
        yield f"n = {scan['n']}  q = {scan['q']}  r_max = {scan['r_max']}"
        yield from _tab(["r", "S"], ([row["r"], row["S"]] for row in scan["rows"]))
        none = f"none (no sign failure through r_max = {scan['r_max']})"
        yield f"min_negative_r = {scan.get('min_negative_r', none)}"


def _cmd_scan(args) -> int:
    _check_ceiling(args.rmax, "--rmax")
    if args.grid is not None:
        scans = [report.to_dict() for report in scan_grid(args.n, list(args.grid), args.rmax)]
        rows = ([scan["q"], row["r"], row["S"]] for scan in scans for row in scan["rows"])
        return _emit(args.format, scans, ["q", "r", "S"], rows, _scan_table(scans))
    scan = min_negative_r(args.n, args.q, args.rmax).to_dict()
    rows = ([row["r"], row["S"]] for row in scan["rows"])
    return _emit(args.format, scan, ["r", "S"], rows, _scan_table([scan]))


# -- blocks -------------------------------------------------------------------


def _cmd_blocks(args) -> int:
    _check_ceiling(args.rmax, "--rmax")
    base = diastasis.FubiniStudyBase(args.d, args.multiple)
    payload = diastasis.eh_block_scan(base, args.c, args.rmax, args.cutoff).to_dict()
    columns = ["r", "exponent", "scale", "verdict"]
    rows = ([block[name] for name in columns] for block in payload.get("blocks", []))
    return _emit(args.format, payload, columns, rows, _blocks_table(payload, columns, rows))


def _blocks_table(scan: dict, columns: list[str], rows: Iterable[list]) -> Iterator[str]:
    """The table lines of one ``BlockScanReport.to_dict()`` with its CSV ``rows``."""
    yield "d = {d}  lambda = {lambda}  k0 = {k0}  c = {c}  cutoff = {cutoff}".format_map(scan)
    if scan["integrality_failure"]:
        yield f"integrality failure: {scan['failure_reason']}"
        return
    yield from _tab(columns, rows)
    none = f"none (all scales non-negative through r_max = {scan['r_max']})"
    yield f"first_negative_r = {scan.get('first_negative_r', none)}"


# -- wiring --------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call; do not modify it."""
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

    p_hr.add_argument("--m", type=_rational_arg, required=True, help="twist multiple, p/q > 0")
    which = p_hr.add_mutually_exclusive_group(required=True)
    which.add_argument("--r", type=int, help="a single r")
    which.add_argument("--rmax", type=int, help="all of r = 1..rmax")

    p_scan = subparsers.add_parser("scan", help="first negative alternating Bell sum")
    p_scan.add_argument("--n", type=int, required=True, help="base dimension, >= 2")
    q_or_grid = p_scan.add_mutually_exclusive_group(required=True)
    q_or_grid.add_argument("--q", type=_rational_arg, help="twist ratio m/k0, p/q > 0")
    q_or_grid.add_argument(
        "--grid", type=_rational_list_arg, help="comma-separated q values, scanned in turn"
    )
    p_scan.add_argument("--rmax", type=int, default=200, help="scan cap (default 200)")

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

    for p in subparsers.choices.values():
        p.add_argument("--format", choices=FORMATS, default="table", help="output format")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CoefficientMethodMismatch, BranchResidueError, BellConsistencyError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
