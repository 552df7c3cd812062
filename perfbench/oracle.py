"""Independent answers for the benchmark's jobs, and the parsers that read
what a job printed back into a canonical answer.

Nothing here imports calabi_bell or shares its code paths:

* ``scan``: S(n, q, r) by the exponential-formula recurrence
  S_k = sum_{i=1}^{k} C(k-1, i-1) z_i S_{k-i}, z_i = -q (-1)^i x_i
  (Comtet, Advanced Combinatorics, 1974), O(r^2) per q against the
  program's O(r^3) Bell triangle;
* ``hr`` / ``exp``: the bridge r! h_r = (c k0)^r S(n, m/k0, r);
* ``useries``: the closed product a_j = (-1)^{j+1} c^j k0^{j-1} x_j;
* ``eval``: the Taylor series of u summed in floating point;
* ``blocks``: the exponents r (d+1) + lambda and the first r with h_r < 0;
* ``bell``: the defining sum over integer partitions;
* ``psd``: the verdict fixed when the matrix was built;
* ``fs_power``: generalized binomials times multinomials, indices by
  compositions;
* ``residual``: identically zero through the requested order.

Each check returns the canonical answer (JSON-able, exact values as
"p/q") or raises ``Mismatch``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from functools import lru_cache

from workloads import fmt


class Mismatch(Exception):
    """The job's answer disagrees with the oracle or cannot be read."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# -- exact references --------------------------------------------------------------


def x_term(n: int, l: int) -> Fraction:
    return Fraction(math.prod(n * s - 1 for s in range(1, l)), l)


@lru_cache(maxsize=256)
def alternating_sums(n: int, q: Fraction, r_max: int, stop_at_negative: bool) -> tuple[Fraction, ...]:
    """(S(n, q, 1), ..., S(n, q, r)) for r = r_max or the first negative."""
    z, s = [], [Fraction(1)]
    for k in range(1, r_max + 1):
        z.append((q if k % 2 else -q) * x_term(n, k))
        s.append(sum(math.comb(k - 1, i - 1) * z[i - 1] * s[k - i] for i in range(1, k + 1)))
        if stop_at_negative and s[k] < 0:
            break
    return tuple(s[1:])


def h_values(n: int, k0: Fraction, c: Fraction, m: Fraction, r_max: int) -> list[Fraction]:
    sums = alternating_sums(n, m / k0, r_max, False)
    return [(c * k0) ** r * s / math.factorial(r) for r, s in enumerate(sums, start=1)]


def u_coefficients(n: int, k0: Fraction, c: Fraction, order: int) -> list[Fraction]:
    return [(1 if j % 2 else -1) * c**j * k0 ** (j - 1) * x_term(n, j) for j in range(1, order + 1)]


def u_taylor(n: int, k0: float, c: float, x: float) -> float:
    """u(x) = sum_j a_j x^j / j!, each term from the last by the ratio of
    consecutive a_j; converges for x < 1 / (n k0 c)."""
    term, total, j = c * x, 0.0, 1
    while abs(term) > 1e-18 * max(abs(total), 1e-300):
        total += term
        term *= -c * k0 * x * (n * j - 1) * j / ((j + 1) * (j + 1))
        j += 1
    return total


def _partitions(total: int, parts: int, largest: int):
    """Non-increasing tuples of ``parts`` positive integers summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(largest, total - parts + 1), 0, -1):
        for rest in _partitions(total - first, parts - 1, first):
            yield (first,) + rest


def partial_bell(r: int, j: int, xs: list[Fraction]) -> Fraction:
    total = Fraction(0)
    for parts in _partitions(r, j, r):
        weight = Fraction(math.factorial(r))
        for size in set(parts):
            count = parts.count(size)
            weight *= xs[size - 1] ** count / (math.factorial(count) * math.factorial(size) ** count)
        total += weight
    return total


def _compositions(d: int, total: int):
    if d == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(d - 1, total - first):
            yield (first,) + rest


def fs_entries(d: int, exponent: Fraction, cutoff: int) -> list:
    entries = []
    for alpha in sorted(a for k in range(1, cutoff + 1) for a in _compositions(d, k)):
        k = sum(alpha)
        binom = math.prod(exponent - i for i in range(k)) / math.factorial(k)
        multinomial = math.factorial(k) // math.prod(math.factorial(a) for a in alpha)
        entries.append([list(alpha), fmt(binom * multinomial)])
    return entries


def check_fixture(path: str) -> None:
    """The scan oracle must reproduce the repository's frozen witnesses."""
    with open(path, encoding="utf-8") as handle:
        fixture = json.load(handle)
    for case in fixture["cases"]:
        sums = alternating_sums(case["n"], Fraction(case["q"]), fixture["r_max"], True)
        if not (sums[-1] < 0 and len(sums) == case["min_negative_r"]):
            raise Mismatch(f"scan oracle disagrees with {path} at {case}")


# -- parsers -------------------------------------------------------------------------


def _csv_rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def _table_value(line: str, key: str) -> str:
    name, sep, value = line.partition(" = ")
    expect(sep and name == key, f"expected '{key} = ...', got {line!r}")
    return value


def _canon(value: str) -> str:
    return fmt(Fraction(value))


def _parse_scan(text: str, form: str) -> list[dict]:
    """[{"q", "rows", "witness"}] in printed order; ``witness`` None when absent."""
    if form == "json":
        payload = json.loads(text)
        reports = payload if isinstance(payload, list) else [payload]
        return [{"q": _canon(rep["q"]), "rows": [_canon(row["S"]) for row in rep["rows"]],
                 "r": [row["r"] for row in rep["rows"]], "witness": rep.get("min_negative_r")}
                for rep in reports]
    if form == "csv":
        rows = _csv_rows(text)
        if rows[0] == ["r", "S"]:
            rows = [[None] + row for row in rows]
        reports = []
        for q, r, s in rows[1:]:
            if r == "1":  # each report's rows restart at r = 1
                reports.append({"q": None if q is None else _canon(q), "rows": [], "r": []})
            reports[-1]["rows"].append(_canon(s))
            reports[-1]["r"].append(int(r))
        for rep in reports:
            rep["witness"] = rep["r"][-1] if Fraction(rep["rows"][-1]) < 0 else None
        return reports
    reports = []
    for line in text.splitlines():
        if line.startswith("n = "):
            q = line.split("  ")[1]
            reports.append({"q": _canon(_table_value(q, "q")), "rows": [], "r": [], "witness": None})
        elif line.startswith("min_negative_r = "):
            value = _table_value(line, "min_negative_r")
            reports[-1]["witness"] = None if value.startswith("none") else int(value)
        elif line and line != "r\tS":
            r, s = line.split("\t")
            reports[-1]["r"].append(int(r))
            reports[-1]["rows"].append(_canon(s))
    return reports


def _parse_pairs(text: str, form: str, key: str, header: str) -> list[tuple[int, str]]:
    """(index, exact value) pairs of an ``hr`` or ``useries`` table."""
    if form == "json":
        payload = json.loads(text)
        if key == "h":
            return [(item["r"], _canon(item["h"])) for item in payload["values"]]
        return [(j, _canon(v)) for j, v in enumerate(payload["values"], start=1)]
    if form == "csv":
        rows = _csv_rows(text)
        expect(rows[0] == header.split("\t"), f"unexpected CSV header {rows[0]}")
        return [(int(i), _canon(v)) for i, v in rows[1:]]
    lines = text.splitlines()
    if key == "h":
        expect(lines[0] == header, f"unexpected table header {lines[0]!r}")
        return [(int(i), _canon(v)) for i, v in (line.split("\t") for line in lines[1:])]
    return [(j, _canon(v)) for j, v in enumerate(lines[0].split(", "), start=1)]


# -- checks ---------------------------------------------------------------------------


def check_scan(spec: dict, text: str) -> list:
    reports = _parse_scan(text, spec["format"])
    expect(len(reports) == len(spec["qs"]), f"{len(reports)} reports for {len(spec['qs'])} q values")
    answer = []
    for q_text, rep in zip(spec["qs"], reports):
        q = Fraction(q_text)
        expect(rep["q"] in (None, fmt(q)), f"report for q={rep['q']}, expected {fmt(q)}")
        sums = alternating_sums(spec["n"], q, spec["r_max"], True)
        witness = len(sums) if sums[-1] < 0 else None
        expect(rep["r"] == list(range(1, len(sums) + 1)), f"q={fmt(q)}: rows are not r = 1..{len(sums)}")
        expect(rep["rows"] == [fmt(s) for s in sums], f"q={fmt(q)}: S values disagree with the recurrence")
        expect(rep["witness"] == witness, f"q={fmt(q)}: witness {rep['witness']}, expected {witness}")
        answer.append([fmt(q), witness, rep["rows"]])
    return answer


def check_bell(spec: dict, text: str) -> str:
    form = spec["format"]
    if form == "json":
        value = json.loads(text)["value"]
    elif form == "csv":
        value = _csv_rows(text)[1][2]
    else:
        value = text.strip()
    xs = [Fraction(x) for x in spec["xs"]]
    r, j = spec["r"], spec["j"]
    expected = partial_bell(r, j, xs) if j else sum((partial_bell(r, k, xs) for k in range(1, r + 1)), Fraction(0))
    expect(_canon(value) == fmt(expected), f"Bell value {value}, expected {fmt(expected)}")
    return fmt(expected)


def _params(spec: dict) -> tuple[int, Fraction, Fraction]:
    return spec["n"], Fraction(spec["k0"]), Fraction(spec["c"])


def check_useries(spec: dict, text: str) -> list:
    pairs = _parse_pairs(text, spec["format"], "a", "j\ta")
    expected = [fmt(a) for a in u_coefficients(*_params(spec), spec["order"])]
    expect([j for j, _ in pairs] == list(range(1, spec["order"] + 1)), "coefficient indices are not 1..order")
    expect([v for _, v in pairs] == expected, "coefficients disagree with the closed product")
    if spec["format"] == "table":
        expect(text.splitlines()[1:] == ["methods agree"], "missing 'methods agree'")
    elif spec["format"] == "json":
        expect(json.loads(text).get("methods_agree") is True, "methods_agree is not true")
    return expected


EVAL_KEYS = ("u", "imaginary_residue", "horizontal_factor", "fiber_factor", "ode_residual")


def check_eval(spec: dict, text: str) -> str:
    form = spec["format"]
    if form == "json":
        payload = json.loads(text)
        values = {key: float(payload[key]) for key in EVAL_KEYS}
    elif form == "csv":
        header, row = _csv_rows(text)
        values = {key: float(v) for key, v in zip(header, row) if key in EVAL_KEYS}
    else:
        lines = text.splitlines()
        values = {"u": float(lines[0].partition(" = ")[2])}
        values.update((key, float(_table_value(line, key))) for key, line in zip(EVAL_KEYS[1:], lines[1:]))
    expect(set(values) == set(EVAL_KEYS), f"missing fields in {sorted(values)}")
    n, k0, c = _params(spec)
    expected = u_taylor(n, float(k0), float(c), float(spec["x"]))
    expect(math.isclose(values["u"], expected, rel_tol=1e-9, abs_tol=1e-12),
           f"u = {values['u']!r}, Taylor series gives {expected!r}")
    expect(values["imaginary_residue"] <= 1e-10, "imaginary residue above 1e-10")
    expect(abs(values["ode_residual"]) <= 1e-9, "defining condition violated")
    expect(values["horizontal_factor"] > 0 and values["fiber_factor"] > 0, "non-positive factor")
    return f"{values['u']:.10g}"


def check_hr(spec: dict, text: str) -> list:
    pairs = _parse_pairs(text, spec["format"], "h", "r\th")
    expected = [fmt(h) for h in h_values(*_params(spec), Fraction(spec["m"]), spec["r_max"])]
    expect([r for r, _ in pairs] == list(range(1, spec["r_max"] + 1)), "h indices are not 1..rmax")
    expect([v for _, v in pairs] == expected, "h_r disagrees with the bridge to S(n, m/k0, r)")
    return expected


def _parse_blocks(text: str, form: str) -> tuple[bool, list[list], int | None]:
    if form == "json":
        payload = json.loads(text)
        rows = [[b["r"], _canon(b["exponent"]), _canon(b["scale"]), b["verdict"]] for b in payload.get("blocks", [])]
        return payload["integrality_failure"], rows, payload.get("first_negative_r")
    if form == "csv":
        rows = [[int(r), _canon(e), _canon(s), v] for r, e, s, v in _csv_rows(text)[1:]]
        failed = not rows
        negative = rows[-1][0] if rows and Fraction(rows[-1][2]) < 0 else None
        return failed, rows, negative
    lines = text.splitlines()[1:]
    if lines[0].startswith("integrality failure: "):
        return True, [], None
    expect(lines[0] == "r\texponent\tscale\tverdict", f"unexpected table header {lines[0]!r}")
    rows = [[int(r), _canon(e), _canon(s), v] for r, e, s, v in (line.split("\t") for line in lines[1:-1])]
    last = _table_value(lines[-1], "first_negative_r")
    return False, rows, None if last.startswith("none") else int(last)


def check_blocks(spec: dict, text: str) -> list:
    d, lam, c = spec["d"], spec["lam"], Fraction(spec["c"])
    failed, rows, negative = _parse_blocks(text, spec["format"])
    expected_rows, expected_negative = [], None
    if (d + 1) % lam == 0:
        scales = [Fraction(1)] + h_values(d + 1, Fraction(2 * (d + 1), lam), c, Fraction(1), spec["r_max"])
        for r, scale in enumerate(scales):
            expected_rows.append([r, fmt(r * (d + 1) + lam), fmt(scale), "PSD" if scale >= 0 else "not-PSD"])
            if scale < 0:
                expected_negative = r
                break
    expect(failed == ((d + 1) % lam != 0), f"integrality failure reported as {failed}")
    expect(rows == expected_rows, "blocks disagree with exponents r(d+1)+lambda and scales h_r")
    expect(negative == expected_negative, f"first_negative_r {negative}, expected {expected_negative}")
    return [failed, expected_rows, expected_negative]


def check_psd(spec: dict, text: str) -> str:
    expected = "PSD" if spec["psd"] else "not-PSD"
    expect(json.loads(text) == expected, f"verdict {text}, fixed by construction as {expected}")
    return expected


def check_fs_power(spec: dict, text: str) -> list:
    expected = fs_entries(spec["d"], Fraction(spec["exponent"]), spec["cutoff"])
    expect(json.loads(text) == expected, "coefficient matrix disagrees with binomial times multinomial")
    return expected


def check_residual(spec: dict, text: str) -> dict:
    expected = {"order": spec["order"], "nonzero": []}
    expect(json.loads(text) == expected, f"residual {text}, expected zero through order {spec['order']}")
    return expected


def check_exp(spec: dict, text: str) -> list:
    expected = ["1"] + [fmt(h) for h in h_values(*_params(spec), Fraction(spec["m"]), spec["order"])]
    expect(json.loads(text) == expected, "exp(m u) disagrees with the bridge to S(n, m/k0, r)")
    return expected


CHECKS = {
    "scan": check_scan,
    "bell": check_bell,
    "useries": check_useries,
    "eval": check_eval,
    "hr": check_hr,
    "blocks": check_blocks,
    "psd": check_psd,
    "fs_power": check_fs_power,
    "residual": check_residual,
    "exp": check_exp,
}


def check(job: dict, text: str):
    """The canonical answer of ``job`` given what it printed or returned."""
    try:
        return CHECKS[job["check"]](job["spec"], text)
    except Mismatch:
        raise
    except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
        raise Mismatch(f"unreadable answer: {type(exc).__name__}: {exc}") from None
