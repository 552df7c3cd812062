"""Diastasis coefficient blocks for projective-space bases, and the
block scan that exhibits the obstruction on the simplest example.

For the Fubini-Study metric on CP^d scaled so that a fixed positive
multiple ("multiple" = lambda) of it is integral, the candidate embedding
functions expand fiberwise into blocks indexed by the radial degree r.
The degree-r block is a diagonal matrix (rotation invariance kills every
off-diagonal term) whose base entries are multinomial expansion
coefficients of (1 + |z|^2)^N - 1 with N = lambda (r k0/2 + m), scaled by
the exact block constant h_r of the radial potential. A projectively
induced metric needs every block positive semidefinite. N is a positive
integer, so the base entries are >= 0 and the |alpha| = 1 entry is N > 0:
the block is PSD iff h_r >= 0. The scan reads that sign and builds no
matrix; ``fs_coeff_matrix`` builds a block's base matrix on request.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .potential import CalabiParams, HrValue, h_values
from .rationals import Rational, factorial, format_rational, generalized_binomial

__all__ = [
    "FubiniStudyBase",
    "monomial_indices",
    "CoeffMatrix",
    "fs_power_matrix",
    "fs_coeff_matrix",
    "psd_check",
    "BlockMatrix",
    "BlockScanReport",
    "eh_block_scan",
]

PSD = "PSD"
NOT_PSD = "not-PSD"


@dataclass(frozen=True)
class FubiniStudyBase:
    """CP^d with the Fubini-Study form normalized by an integer multiple.

    ``multiple`` (lambda >= 1) is the integrality normalization: the base
    form is lambda times the unit-volume Fubini-Study form, which makes
    the Einstein constant k0 = 2 (d + 1) / lambda. Whether k0/2 lands in
    the positive integers is exactly the integrality question the block
    scan reports on.
    """

    d: int
    multiple: int

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"d must be an integer >= 1, got {self.d!r}")
        if not isinstance(self.multiple, int) or self.multiple < 1:
            raise ValueError(f"multiple must be an integer >= 1, got {self.multiple!r}")

    @property
    def k0(self) -> Fraction:
        return Fraction(2 * (self.d + 1), self.multiple)

    @property
    def half_k0_integral(self) -> bool:
        half = self.k0 / 2
        return half.denominator == 1 and half > 0

    def exponent_for(self, r: int, m: int) -> Fraction:
        """The Fubini-Study power N = lambda (r k0/2 + m) of the degree-r block."""
        return self.multiple * (Fraction(r) * self.k0 / 2 + m)


def monomial_indices(d: int, cutoff: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices alpha in N^d with 1 <= |alpha| <= cutoff,
    lexicographically ordered."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    # Extending sorted prefixes in increasing order keeps them sorted.
    indices: list[tuple[int, ...]] = [()]
    for _ in range(d):
        indices = [alpha + (a,) for alpha in indices for a in range(cutoff - sum(alpha) + 1)]
    return tuple(indices[1:])  # the first is the all-zero index


@dataclass(frozen=True)
class CoeffMatrix:
    """Diagonal-by-monomial coefficient matrix of (1 + |z|^2)^N - 1.

    Rows and columns are the monomials z^alpha, 1 <= |alpha| <= cutoff, in
    lexicographic order; rotation invariance makes every off-diagonal
    entry vanish, so only the diagonal is stored. The entry at alpha is
    C(N, |alpha|) * multinomial(|alpha|; alpha), exact.
    """

    d: int
    exponent: Fraction
    cutoff: int
    indices: tuple[tuple[int, ...], ...]
    entries: tuple[Fraction, ...]

    @cached_property
    def _positions(self) -> dict[tuple[int, ...], int]:
        return {alpha: i for i, alpha in enumerate(self.indices)}

    def entry(self, alpha: tuple[int, ...]) -> Fraction:
        """The diagonal entry at z^alpha; ``ValueError`` if alpha is not an index."""
        try:
            return self.entries[self._positions[alpha]]
        except KeyError:
            raise ValueError(f"{alpha!r} is not an index of this matrix") from None

    def diagonal(self) -> tuple[Fraction, ...]:
        return self.entries

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(sum(alpha) for alpha in self.indices)


def fs_power_matrix(d: int, exponent: Rational | int, cutoff: int) -> CoeffMatrix:
    """The coefficient matrix for a directly given power N (any rational).

    Non-integer N is the interesting case: some generalized binomial
    C(N, k) then goes negative and the matrix stops being PSD, which is
    the finite-dimensional face of the non-embeddability phenomenon.
    """
    if isinstance(exponent, float):
        raise TypeError("exponent must be exact (int, Fraction, or 'p/q'), not float")
    exponent = Fraction(exponent)
    indices = monomial_indices(d, cutoff)
    binomials = {k: generalized_binomial(exponent, k) for k in range(1, cutoff + 1)}
    entries = []
    for alpha in indices:
        total = sum(alpha)
        multinomial = factorial(total)
        for part in alpha:
            multinomial //= factorial(part)
        entries.append(binomials[total] * multinomial)
    return CoeffMatrix(d, exponent, cutoff, indices, tuple(entries))


def fs_coeff_matrix(base: FubiniStudyBase, r: int, m: int, cutoff: int) -> CoeffMatrix:
    """The degree-r base block for twist multiple m (exponent computed
    from the base normalization; always a positive integer for a valid
    base, so these are PSD with the obstruction carried by the scale)."""
    if r < 0:
        raise ValueError("r must be >= 0")
    if not isinstance(m, int) or m < 1:
        raise ValueError("m must be an integer >= 1")
    return fs_power_matrix(base.d, base.exponent_for(r, m), cutoff)


def _dense_is_psd(rows: list[list[Fraction]]) -> bool:
    """Exact PSD test: symmetric elimination with largest-diagonal pivoting.

    At each step the largest remaining diagonal entry is the pivot. If it
    is negative, done. If it is zero, the whole remaining diagonal is
    <= 0, so the block is PSD iff it vanishes entirely (a nonzero
    off-diagonal entry against a zero diagonal gives a negative 2x2
    principal minor). Otherwise one exact Schur-complement step reduces
    the size; PSD of the complement is equivalent to PSD of the block.
    """
    a = [list(row) for row in rows]
    size = len(a)
    for k in range(size):
        p = max(range(k, size), key=lambda i: a[i][i])
        pivot = a[p][p]
        if pivot < 0:
            return False
        if pivot == 0:
            return all(
                a[i][j] == 0 for i in range(k, size) for j in range(k, size)
            )
        if p != k:
            a[k], a[p] = a[p], a[k]
            for row in a:
                row[k], row[p] = row[p], row[k]
        for i in range(k + 1, size):
            f = a[i][k] / pivot
            if f == 0:
                continue
            for j in range(k + 1, size):
                a[i][j] -= f * a[k][j]
            a[i][k] = Fraction(0)
    return True


def psd_check(matrix: CoeffMatrix | list[list[Rational | int]]) -> str:
    """'PSD' or 'not-PSD', decided exactly.

    Diagonal coefficient matrices reduce to a sign check on the diagonal;
    a dense symmetric matrix (list of rows, exact entries) goes through
    pivoted elimination with exact arithmetic.
    """
    if isinstance(matrix, CoeffMatrix):
        return PSD if all(e >= 0 for e in matrix.entries) else NOT_PSD
    rows = [
        [Fraction(v) if not isinstance(v, float) else _reject_float(v) for v in row]
        for row in matrix
    ]
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise ValueError("dense input must be a square matrix")
    for i in range(size):
        for j in range(i + 1, size):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"dense input must be symmetric (entries {i},{j})")
    return PSD if _dense_is_psd(rows) else NOT_PSD


def _reject_float(value: float) -> Fraction:
    raise TypeError("PSD check is exact; float entries are not allowed")


@dataclass(frozen=True)
class BlockMatrix:
    """One degree-r diastasis block: the exact scale h_r times the base
    matrix of (1 + |z|^2)^exponent - 1 (``fs_coeff_matrix``)."""

    r: int
    m: int
    scale: Fraction
    exponent: Fraction
    verdict: str

    def to_dict(self) -> dict:
        return {
            "r": self.r,
            "exponent": format_rational(self.exponent),
            "scale": format_rational(self.scale),
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class BlockScanReport:
    """Outcome of the block scan over r = 0..r_max (stopping at the first
    negative block), or the integrality failure that preempts it."""

    d: int
    multiple: int
    k0: Fraction
    c: Fraction
    r_max: int
    cutoff: int
    integrality_failure: bool
    failure_reason: str | None
    blocks: tuple[BlockMatrix, ...]
    first_negative_r: int | None

    def to_dict(self) -> dict:
        payload = {
            "d": self.d,
            "lambda": self.multiple,
            "k0": format_rational(self.k0),
            "c": format_rational(self.c),
            "r_max": self.r_max,
            "cutoff": self.cutoff,
            "integrality_failure": self.integrality_failure,
        }
        if self.integrality_failure:
            payload["failure_reason"] = self.failure_reason
        else:
            payload["blocks"] = [block.to_dict() for block in self.blocks]
            if self.first_negative_r is not None:
                payload["first_negative_r"] = self.first_negative_r
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def eh_block_scan(
    base: FubiniStudyBase, c: Rational | int, r_max: int, cutoff: int = 6
) -> BlockScanReport:
    """Scan the diastasis blocks over the line bundle on CP^d (d = 1 is
    the Eguchi-Hanson case), twist multiple m = 1.

    If k0/2 is not a positive integer the candidate embedding already
    fails on integrality and no blocks are returned. Otherwise blocks are
    returned for r = 0, 1, ... with exact scales (1 at r = 0, the block
    constants h_r of the radial potential for r >= 1) until a negative
    scale appears (that block is included) or r_max is exhausted. Each
    verdict is the sign of the scale (see the module docstring); no matrix
    is built, so the cutoff does not change the cost.
    """
    if isinstance(c, float):
        raise TypeError("c must be exact (int, Fraction, or 'p/q'), not float")
    c = Fraction(c)
    if c <= 0:
        raise ValueError(f"c must be positive, got {c}")
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if not base.half_k0_integral:
        return BlockScanReport(
            d=base.d,
            multiple=base.multiple,
            k0=base.k0,
            c=c,
            r_max=r_max,
            cutoff=cutoff,
            integrality_failure=True,
            failure_reason=(
                f"k0/2 = {format_rational(base.k0 / 2)} is not a positive integer, "
                "so no twist power matches the base normalization"
            ),
            blocks=(),
            first_negative_r=None,
        )
    params = CalabiParams(base.d + 1, base.k0, c)
    scales: list[HrValue] = [HrValue(0, Fraction(1), Fraction(1))]
    if r_max >= 1:
        scales.extend(h_values(params, 1, r_max))
    blocks = []
    first_negative = None
    for item in scales:
        verdict = PSD if item.value >= 0 else NOT_PSD
        blocks.append(BlockMatrix(item.r, 1, item.value, base.exponent_for(item.r, 1), verdict))
        if item.value < 0:
            first_negative = item.r
            break
    return BlockScanReport(
        d=base.d,
        multiple=base.multiple,
        k0=base.k0,
        c=c,
        r_max=r_max,
        cutoff=cutoff,
        integrality_failure=False,
        failure_reason=None,
        blocks=tuple(blocks),
        first_negative_r=first_negative,
    )
