"""Partial and complete exponential Bell polynomials over exact rationals.

The partial Bell polynomial B_{r,j}(x_1, ..., x_{r-j+1}) collects the ways
an r-th derivative of a composition distributes over partitions of r into
j blocks:

    B_{r,j} = sum over s_1 + 2 s_2 + ... = r, s_1 + s_2 + ... = j of
              r! / (s_1! s_2! ... ) * (x_1/1!)^{s_1} (x_2/2!)^{s_2} ...

Two independent algorithms are provided. ``partial_bell_partition`` is the
defining sum over integer partitions, kept as a cross-check oracle (its
cost grows with the partition count, so keep r modest). The production
path is the binomial recurrence

    B_{r,j} = sum_{i=1}^{r-j+1} C(r-1, i-1) * x_i * B_{r-i, j-1}

with B_{0,0} = 1, which ``BellTable`` memoizes by column, O(r^3) in all, as
the oracle of the integer kernel of S and h_r. ``complete_bell`` runs
Comtet's Y_{m+1} = sum_{i=0}^{m} C(m, i) x_{i+1} Y_{m-i}, Y_0 = 1, O(r^2).
Each triangle sum is one ``rationals._dot``; each recurrence row is one
integer sum of products over a common denominator (``rationals._common``).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from math import comb, factorial
from operator import mul

from .rationals import InputError, Rational, _at_least, _common, _dot, _exact


def _check_indices(r: int, j: int) -> None:
    if not (isinstance(r, int) and isinstance(j, int) and 1 <= j <= r):
        raise InputError(f"require integers 1 <= j <= r, got r={r!r}, j={j!r}")


def _coerce(values: Sequence[Rational | int], needed: int) -> list[Fraction]:
    if len(values) < needed:
        raise InputError(f"x needs at least {needed} values, got {len(values)}")
    return [_exact(v, "x") for v in values[:needed]]


def partial_bell_partition(r: int, j: int, values: Sequence[Rational | int]) -> Rational:
    """B_{r,j} by direct enumeration of partition multiplicity vectors.

    Enumerates all (s_1, ..., s_{r-j+1}) with sum s_i = j and
    sum i*s_i = r; each contributes r!/(prod s_i! (i!)^{s_i}) prod x_i^{s_i}.
    Exponential in r; this is the oracle, not the fast path.
    """
    _check_indices(r, j)
    largest = r - j + 1
    xs = _coerce(values, largest)
    total = Fraction(0)

    def factor(part: int, count: int) -> Fraction:
        if count == 0:
            return Fraction(1)
        return (xs[part - 1] ** count) / (factorial(count) * factorial(part) ** count)

    # Choose the multiplicity s_part for each part size in turn, pruning on
    # the weight still achievable with the remaining block count.
    def descend(part: int, weight_left: int, blocks_left: int, coeff: Fraction) -> None:
        nonlocal total
        if part > largest:
            if weight_left == 0 and blocks_left == 0:
                total += coeff
            return
        if weight_left < part * blocks_left or weight_left > largest * blocks_left:
            return
        for count in range(min(blocks_left, weight_left // part) + 1):
            scaled = coeff * factor(part, count)
            descend(part + 1, weight_left - part * count, blocks_left - count, scaled)

    descend(1, r, j, Fraction(factorial(r)))
    return total


def partial_bell_recurrence(r: int, j: int, values: Sequence[Rational | int]) -> Rational:
    """B_{r,j} by the binomial recurrence, level by level in the block count.

    Every entry the recurrence reaches from (r, j) has index gap rr - jj
    between 0 and r - j, so the input needs exactly r-j+1 values, same
    contract as the partition sum. Levels jj < j keep all r-j+1 gaps;
    level j computes only B_{r,j}. No recursion, so j near r is as safe
    as small j.
    """
    _check_indices(r, j)
    top = r - j
    *_, (xs, den) = _common(_coerce(values, top + 1))
    # x_i = n_i / D, and B_{r,j} is homogeneous of degree j: level[g] = D^jj B_{jj+g, jj}.
    level = xs
    for jj in range(2, j + 1):
        below, level = level, []
        for g in range(top + 1) if jj < j else (top,):
            weighted = map(mul, [comb(jj + g - 1, i) for i in range(g + 1)], xs)
            level.append(sum(map(mul, weighted, below[g::-1])))
    return Fraction(level[-1], den**j)


class BellTable:
    """Incrementally built triangle of partial Bell polynomial values.

    ``terms`` is either a finite sequence (x_1, x_2, ...) or a callable
    mapping l >= 1 to x_l, for sequences defined by a formula. Rows are
    built on demand by ``extend`` / ``value`` and never recomputed, so
    reading many r from one table costs one triangle, stored by column.
    """

    def __init__(self, terms: Sequence[Rational | int] | Callable[[int], Rational]):
        if callable(terms):
            self._term = terms
            self._limit: int | None = None
        else:
            seq = [_exact(v, "x") for v in terms]
            self._term = lambda l: seq[l - 1]
            self._limit = len(seq)
        # _cols[j] = [B_{j,j}, B_{j+1,j}, ...]: column 1 is x_1, x_2, ...; 0 is a stub.
        self._cols: list[list[Fraction]] = [[]]

    @property
    def r_max(self) -> int:
        return len(self._cols) - 1

    def extend(self, r_max: int) -> None:
        if self._limit is not None and r_max > self._limit:
            raise InputError(f"input sequence has only {self._limit} terms, cannot extend to r={r_max}")
        cols = self._cols
        for r in range(len(cols), r_max + 1):
            x = _exact(self._term(r), "x")  # a bad term leaves the table as it was
            cols.append([])
            weighted = [comb(r - 1, i) * v for i, v in enumerate(cols[1])]  # x_1..x_{r-1}
            cols[1].append(x)
            for j in range(2, r + 1):
                cols[j].append(_dot(weighted, cols[j - 1][r - j :: -1]))

    def value(self, r: int, j: int) -> Rational:
        _check_indices(r, j)
        self.extend(r)
        return self._cols[j][r - j]

    def row(self, r: int) -> tuple[Rational, ...]:
        """(B_{r,1}, ..., B_{r,r})."""
        self.extend(_at_least(r, 1, "row index"))
        return tuple(self._cols[j][r - j] for j in range(1, r + 1))


def complete_bell(r: int, values: Sequence[Rational | int]) -> Rational:
    """Complete Bell polynomial Y_r = sum_{j=1}^{r} B_{r,j}(x_1..x_{r-j+1}).

    r must be >= 1; the r = 0 convention is deliberately not offered.
    Comtet's recurrence (module docstring) builds Y_1..Y_r, one sum a row.
    """
    xs = _coerce(values, _at_least(r, 1, "r"))
    ys = [Fraction(1)]
    for m, ((x, dx), (y, dy)) in enumerate(zip(_common(xs), _common(ys))):
        weighted = map(mul, [comb(m, i) for i in range(m + 1)], x)
        ys.append(Fraction(sum(map(mul, weighted, reversed(y))), dx * dy))
    return ys[r]
