"""Sign scan of the alternating Bell-polynomial sums that obstruct
projectively induced metrics.

The potential's derivatives, stripped of scale, give the normalized
sequence x_l = (1/l) prod_{s=1}^{l-1} (n s - 1); for a twist ratio q > 0

    S(n, q, r) = (-1)^r sum_{j=1}^{r} (-q)^j B_{r,j}(x_1, ..., x_r).

S(n, q, r) carries (up to the positive factor (c k0)^r / r!) the sign of
the block-scale constant h_r at m/k0 = q, so a negative S at some r is
exactly a negative block. ``min_negative_r`` scans r = 1, 2, ... and
reports the first sign failure with the full row history.

The scan takes its rows from the exponential formula S(n, q, r) =
r! [t^r] exp(-q X(-t)), X(t) = sum_l x_l t^l / l!, which runs on
R = (1 + n t)^(1/n) (README "Sign scan"): ``_s_rows`` computes integers
b^m gcd(n^m, m!) S_m for q = a/b, each reduced once, in O(n) or O(r)
big-integer products a row. h_r and the block scan read it too.
``alternating_bell_sum`` (the Bell triangle over x_l, O(r^3)) is its
oracle and re-checks each path's last row up to r = 40.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from math import gcd

from . import bell
from .rationals import BellConsistencyError, Rational, _at_least, _dot, _positive, _Record
from .rationals import format_rational

# Scans and h_values re-derive a last row up to this r by the Bell triangle.
RECHECK_MAX_R = 40


def normalized_term(n: int, l: int) -> Fraction:
    """x_l = (1/l) prod_{s=1}^{l-1} (n s - 1); x_1 = 1 for every n."""
    _at_least(n, 2, "n")
    _at_least(l, 1, "l")
    prod = 1
    for s in range(1, l):
        prod *= n * s - 1
    return Fraction(prod, l)


def alternating_bell_sum(
    n: int, q: Rational | int, r: int, table: bell.BellTable | None = None
) -> Fraction:
    """S(n, q, r) = (-1)^r sum_{j=1}^{r} (-q)^j B_{r,j}(x_1..x_r).

    The defining sum over the Bell triangle, O(r^3): the oracle of the
    scan's kernel (see ``_recheck``). Pass a ``table`` built over
    ``normalized_term(n, .)`` to amortize the triangle across many r.
    """
    _at_least(n, 2, "n")
    q = _positive(q, "q")
    _at_least(r, 1, "r")
    if table is None:
        table = bell.BellTable(lambda l: normalized_term(n, l))
    # q = a/b: b^r S = (-1)^r sum_j (-a)^j b^(r-j) B_{r,j}, one exact sum.
    a, b = q.numerator, q.denominator
    total = _dot([(-a) ** j * b ** (r - j) for j in range(1, r + 1)], table.row(r))
    return Fraction((-1) ** r * total.numerator, total.denominator * b**r)


class ScanReport(_Record):
    """Result of scanning S(n, q, r) for r = 1..(first negative or r_max).

    ``rows`` holds every value computed, in order; ``min_negative_r`` is
    the first r with S < 0, or None if the scan exhausted r_max without
    finding one (rows then cover all of 1..r_max).
    """

    n: int
    q: Fraction
    r_max: int
    rows: tuple[tuple[int, Fraction], ...]
    min_negative_r: int | None

    def to_dict(self) -> dict:
        payload = {
            "n": self.n,
            "q": format_rational(self.q),
            "r_max": self.r_max,
            "rows": [{"r": r, "S": format_rational(s)} for r, s in self.rows],
        }
        if self.min_negative_r is not None:
            payload["min_negative_r"] = self.min_negative_r
        return payload


def _s_rows(n: int, q: Fraction, r_max: int) -> Iterator[Fraction]:
    """S(n, q, 1..r_max), one row at a time, in Python ints.

    For q = a/b both kernels yield nu(m) and B_0[m] = D_m S_m, an integer for
    D_m = b^m prod_{i<=m} nu(i) = b^m gcd(n^m, m!) (README "Sign scan"); row m
    is the single reduction B_0[m] / D_m. The cyclic kernel costs O(n)
    big-integer products per row and the convolution O(m), but the cyclic one
    keeps n integers and a power (m b + a)^n, so it runs only while
    (28 n)^2 <= r_max^3, a fit to the measured crossover (README "Sign scan").
    """
    a, b = q.numerator, q.denominator
    kernel = _cyclic_rows if (28 * n) ** 2 <= r_max**3 else _convolution_rows
    scale = 1  # D_m
    for nu, y in kernel(n, a, b, r_max):
        scale *= b * nu
        yield Fraction(y, scale)


def _smooth_part(n: int, i: int) -> int:
    """nu(i): the largest divisor of i whose primes all divide n."""
    part, g = 1, gcd(i, n)
    while g > 1:
        part, i = part * g, i // g
        g = gcd(i, g)
    return part


def _cyclic_rows(n: int, a: int, b: int, r_max: int) -> Iterator[tuple[int, int]]:
    """(nu(m), B_0[m]), m = 1..r_max, by the cyclic system of G_k = R^k Y,
    O(n) products a row.

    Runs forward on A_k[m] = a^k D_m m! [t^m] G_k, k <= n, with one exact
    division by c^n - a^n a row, c = m b + a (README "Sign scan").
    """
    a_n = a**n
    prev = [a**k for k in range(n + 1)]  # A_0..A_n at row m - 1
    for m in range(1, r_max + 1):
        nu = _smooth_part(n, m)
        c, f, base = m * b + a, m * b * nu, -(m - 1) * n * b - a * n
        ts, acc = [], 0
        for k in range(n):
            ts.append(t := (base + k * b) * prev[k] + n * prev[k + 1])
            acc = acc * c + t
        y, remainder = divmod(f * (acc + a_n * n * prev[0]), c**n - a_n)
        if remainder:
            raise BellConsistencyError(f"c^n - a^n does not divide row {m} of the cyclic kernel")
        prev = [y]
        for t in ts:
            prev.append(c * prev[-1] - f * t)
        yield nu, y


def _convolution_rows(n: int, a: int, b: int, r_max: int) -> Iterator[tuple[int, int]]:
    """(nu(m), B_0[m]), m = 1..r_max, by the exponential formula, O(m)
    products and one exact division by m for row m (README "Sign scan"). It
    keeps only the rows, so it serves any n."""
    weights, nus, ys = [0], [1], [1]  # rho_i b^(i-1), nu(i), B_0[i]
    rho = 1
    for m in range(1, r_max + 1):
        rho *= 1 - (m - 1) * n
        weights.append(rho * b ** (m - 1))
        nus.append(_smooth_part(n, m))
        acc, coeff = 0, m * nus[m]  # C(m, i) nu(m-i+1)...nu(m), updated in i
        for i in range(1, m + 1):
            acc += coeff * weights[i] * ys[m - i]
            coeff = coeff * (m - i) // (i + 1) * nus[m - i]
        y, remainder = divmod(a * acc, m)
        if remainder:
            raise BellConsistencyError(f"m does not divide row {m} of the convolution kernel")
        ys.append(y)
        yield nus[m], y


def _recheck(n: int, q: Fraction, r: int, value: Fraction, table: bell.BellTable | None = None):
    """Raise ``BellConsistencyError`` if r <= ``RECHECK_MAX_R`` and the
    kernel's ``value`` of S(n, q, r) differs from ``alternating_bell_sum``."""
    if r <= RECHECK_MAX_R:
        expected = alternating_bell_sum(n, q, r, table)
        if value != expected:
            raise BellConsistencyError(
                f"S({n}, {q}, {r}) = {value} disagrees with the Bell triangle value {expected}"
            )


def min_negative_r(
    n: int, q: Rational | int, r_max: int = 200, table: bell.BellTable | None = None
) -> ScanReport:
    """Scan r = 1, 2, ... for the first negative S(n, q, r).

    Stops at the witness (inclusive) or at r_max. Exact arithmetic
    throughout; the returned rows are the full audit trail. A last row
    with r <= ``RECHECK_MAX_R`` is re-derived through the Bell triangle;
    a disagreement raises ``BellConsistencyError``. As in
    ``alternating_bell_sum``, a ``table`` built over
    ``normalized_term(n, .)`` (the same n) lets many scans share one
    triangle; without one, the re-check builds its own.
    """
    _at_least(n, 2, "n")
    q = _positive(q, "q")
    _at_least(r_max, 1, "r_max")
    rows = []
    witness = None
    for r, value in enumerate(_s_rows(n, q, r_max), 1):
        rows.append((r, value))
        if value.numerator < 0:
            witness = r
            break
    _recheck(n, q, *rows[-1], table)
    return ScanReport(n=n, q=q, r_max=r_max, rows=tuple(rows), min_negative_r=witness)


def scan_grid(n: int, qs: list[Rational | int], r_max: int = 200) -> list[ScanReport]:
    """``min_negative_r`` for several q values, one after another, in
    input order. n, r_max and every q are validated before the first scan
    starts. The scans share one Bell triangle for their
    r <= ``RECHECK_MAX_R`` re-checks, so it is built only up to the largest
    re-checked row."""
    _at_least(n, 2, "n")
    _at_least(r_max, 1, "r_max")
    checked = [_positive(q, "q") for q in qs]
    table = bell.BellTable(lambda l: normalized_term(n, l))
    return [min_negative_r(n, q, r_max, table) for q in checked]
