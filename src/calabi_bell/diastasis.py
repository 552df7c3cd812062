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
the block is PSD iff h_r >= 0. The scan reads that sign off ``min_negative_r``
and builds no matrix; ``fs_coeff_matrix`` builds a block's matrix on request.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .inequality import min_negative_r
from .potential import CalabiParams, _scaled
from .rationals import (
    InputError, Rational, _at_least, _exact, _Record, format_rational, generalized_binomial,
)

PSD = "PSD"
NOT_PSD = "not-PSD"


class FubiniStudyBase(_Record):
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
        _at_least(self.d, 1, "d")
        _at_least(self.multiple, 1, "the multiple lambda")

    @property
    def k0(self) -> Fraction:
        return Fraction(2 * (self.d + 1), self.multiple)

    @property
    def half_k0_integral(self) -> bool:
        return (self.d + 1) % self.multiple == 0  # k0/2 = (d + 1)/lambda > 0

    def exponent_for(self, r: int, m: int) -> Fraction:
        """The degree-r block's power N = lambda (r k0/2 + m) = r (d + 1) + lambda m, an integer."""
        return Fraction(r * (self.d + 1) + self.multiple * m)


def monomial_indices(d: int, cutoff: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices alpha in N^d with 1 <= |alpha| <= cutoff,
    lexicographically ordered."""
    _at_least(d, 1, "d")
    _at_least(cutoff, 1, "cutoff")
    # Extending sorted prefixes in increasing order keeps them sorted.
    indices: list[tuple[int, ...]] = [()]
    for _ in range(d):
        indices = [alpha + (a,) for alpha in indices for a in range(cutoff - sum(alpha) + 1)]
    return tuple(indices[1:])  # the first is the all-zero index


class CoeffMatrix(_Record):
    """Diagonal-by-monomial coefficient matrix of (1 + |z|^2)^N - 1.

    Rows and columns are the monomials z^alpha, 1 <= |alpha| <= cutoff, in
    lexicographic order; rotation invariance makes every off-diagonal
    entry vanish, so only the diagonal is stored: ``entries[i]``, the
    entry at alpha = ``indices[i]``, is C(N, |alpha|) * multinomial(|alpha|;
    alpha), exact.
    """

    d: int
    exponent: Fraction
    cutoff: int
    indices: tuple[tuple[int, ...], ...]
    entries: tuple[Fraction, ...]


def fs_power_matrix(d: int, exponent: Rational | int, cutoff: int) -> CoeffMatrix:
    """The coefficient matrix for a directly given power N (any rational).

    Non-integer N is the interesting case: some generalized binomial
    C(N, k) then goes negative and the matrix stops being PSD, which is
    the finite-dimensional face of the non-embeddability phenomenon.
    """
    exponent = _exact(exponent, "exponent")
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
    """The degree-r base block for twist multiple m. Its exponent
    ``base.exponent_for(r, m)`` is a positive integer for every base, so
    these are PSD, with the obstruction carried by the scale."""
    _at_least(r, 0, "r")
    _at_least(m, 1, "m")
    return fs_power_matrix(base.d, base.exponent_for(r, m), cutoff)


def _dense_is_psd(rows: list[list[Fraction]]) -> bool:
    """Exact PSD test: symmetric elimination with largest-diagonal pivoting.

    At each step the largest remaining diagonal entry is the pivot. If it
    is negative, done. If it is zero, the remaining diagonal is <= 0, so
    the block is PSD iff it vanishes (a nonzero off-diagonal entry against
    a zero diagonal gives a negative 2x2 principal minor). Otherwise one
    exact Schur-complement step, PSD iff the block is, updates the upper
    triangle and mirrors it: half of LU's updates, as in LDL^T. Entries
    stay ``Fraction``s. Bareiss's integer steps run 8-9x faster, but wait on
    a benchmark whose peak_rss_mb grows with its pass count (ROADMAP 1, 4).
    """
    a = [list(row) for row in rows]
    size = len(a)
    for k in range(size):
        p = max(range(k, size), key=lambda i: a[i][i])
        pivot = a[p][p]
        if pivot < 0:
            return False
        if pivot == 0:
            return all(a[i][j] == 0 for i in range(k, size) for j in range(i, size))
        if p != k:
            a[k], a[p] = a[p], a[k]
            for row in a:
                row[k], row[p] = row[p], row[k]
        for i in range(k + 1, size):
            f = a[i][k] / pivot
            if f == 0:
                continue
            for j in range(i, size):
                a[i][j] = a[j][i] = a[i][j] - f * a[k][j]
    return True


def psd_check(matrix: CoeffMatrix | list[list[Rational | int]]) -> str:
    """'PSD' or 'not-PSD', decided exactly: a sign check on a ``CoeffMatrix``'s
    diagonal, ``_dense_is_psd`` on a dense symmetric list of exact rows."""
    if isinstance(matrix, CoeffMatrix):
        return PSD if all(e >= 0 for e in matrix.entries) else NOT_PSD
    rows = [[_exact(v, "a PSD check entry") for v in row] for row in matrix]
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise InputError("dense input must be a square matrix")
    for i in range(size):
        for j in range(i + 1, size):
            if rows[i][j] != rows[j][i]:
                raise InputError(f"dense input must be symmetric (entries {i},{j})")
    return PSD if _dense_is_psd(rows) else NOT_PSD


class BlockMatrix(_Record):
    """One degree-r diastasis block: the exact scale h_r times the base
    matrix of (1 + |z|^2)^exponent - 1 (``fs_coeff_matrix``)."""

    r: int
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


class BlockScanReport(_Record):
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
    is built, nor any scale past the witness, so the cutoff sets no cost.
    """
    params = CalabiParams(base.d + 1, base.k0, c)  # validates c
    _at_least(r_max, 0, "r_max")
    _at_least(cutoff, 1, "cutoff")
    reason, blocks = None, ()
    if not base.half_k0_integral:
        reason = (
            f"k0/2 = {format_rational(base.k0 / 2)} is not a positive integer, "
            "so no twist power matches the base normalization"
        )
    else:
        scan = min_negative_r(params.n, 1 / params.k0, r_max).rows if r_max >= 1 else ()
        scales = [Fraction(1), *_scaled(params, [s for _, s in scan])]
        blocks = tuple(
            BlockMatrix(r, scale, base.exponent_for(r, 1), PSD if scale >= 0 else NOT_PSD)
            for r, scale in enumerate(scales)
        )
    return BlockScanReport(
        d=base.d,
        multiple=base.multiple,
        k0=base.k0,
        c=params.c,
        r_max=r_max,
        cutoff=cutoff,
        integrality_failure=reason is not None,
        failure_reason=reason,
        blocks=blocks,
        first_negative_r=blocks[-1].r if blocks and blocks[-1].scale < 0 else None,
    )
