"""The radial potential of the Ricci-flat metric of Calabi type.

On the total space of a negative power of the canonical bundle over a
compact Einstein base of complex dimension n, the rotation-invariant
Kaehler potential u(x) of the Ricci-flat metric is characterized by

    u(0) = 0,  u'(0) = c > 0,
    (1 + k0 x u'(x))^{n-1} (u'(x) + x u''(x)) = c   for x >= 0,

with k0 > 0 the Einstein normalization of the base. This module computes
the Taylor data of u at 0 by two independent routes and evaluates the
closed form numerically:

* ``u_coeffs_closed``: the explicit product formula for
  a_j = u^(j)(0), exact rationals;
* ``u_coeffs_ode``: forward substitution on the defining condition,
  no knowledge of the product formula: an all-integer recurrence on the
  ordinary coefficients of V = 1 + k0 x u', with a guarded exact division;
* ``u_coeffs``: the second route's values, checked exactly against the first;
* ``ClosedFormEvaluator``: double-precision values of u, u', u'' from the
  closed form, whose imaginary residues are guarded;
* ``h_values``: the exact constants
  h_r = (1/r!) sum_j m^j B_{r,j}(a_1..a_r) that scale the degree-r
  blocks of e^{m u} - 1, as (c k0)^r / r! S(n, m/k0, r) from ``inequality``.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from fractions import Fraction
from operator import mul

from .inequality import _recheck, _s_rows
from .rationals import BranchResidueError, CoefficientMethodMismatch, InputError, Rational
from .rationals import _at_least, _exact, _positive, _Record


class CalabiParams(_Record):
    """Parameters of the radial potential.

    n  -- complex dimension of the base, integer >= 2
    k0 -- Einstein normalization of the base metric, rational > 0
    c  -- scale fixing u'(0) = c, rational > 0
    """

    n: int
    k0: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        _at_least(self.n, 2, "n")
        object.__setattr__(self, "k0", _positive(self.k0, "k0"))
        object.__setattr__(self, "c", _positive(self.c, "c"))

    @property
    def radicand_slope(self) -> Fraction:
        """n * k0 * c: the slope inside the n-th root of the closed form.

        Also the reciprocal of the Taylor radius of convergence at 0.
        """
        return self.n * self.k0 * self.c


class CoefficientSequence(_Record):
    """Exact derivatives a_j = u^(j)(0): ``values[j - 1]`` is a_j."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(_exact(v, "a_j") for v in self.values))


def _closed_ratios(params: CalabiParams, order: int) -> Iterator[tuple[int, int]]:
    """The product formula's a_1, ..., a_order as unreduced integer ratios (p, q), q > 0."""
    (cn, cd), (kn, kd) = params.c.as_integer_ratio(), params.k0.as_integer_ratio()
    num, den = cn, cd
    for j in range(1, order + 1):
        yield num, den * j
        num, den = num * (-cn * kn * (params.n * j - 1)), den * (cd * kd)


def u_coeffs_closed(params: CalabiParams, order: int) -> CoefficientSequence:
    """Derivatives at 0 from the explicit product formula.

    a_j = ((-1)^{j+1} / j) * c^j * k0^{j-1} * prod_{s=1}^{j-1} (n s - 1).

    The product is never zero for n >= 2, so the signs alternate strictly
    starting from a_1 = c > 0. Integers throughout; one reduction per a_j.
    """
    _at_least(order, 1, "order")
    return CoefficientSequence(tuple(Fraction(p, q) for p, q in _closed_ratios(params, order)))


def u_coeffs_ode(params: CalabiParams, order: int) -> CoefficientSequence:
    """Derivatives at 0 by forward substitution on the defining condition.

    With y = k0 c x, u'(x) = c f(y) and V = 1 + y f the condition reads
    V^{n-1} V' = 1, so (V^2)'' = -2(n-2) V'^2, and the integers
    N_s = n^s [y^s] V (N_0 = 1, N_1 = n) obey, for s >= 2,

        2 s (s-1) N_s = -sum_{a=1}^{s-1} (s(s-1) + 2(n-2) a(s-a)) N_a N_{s-a},

    each pair a <-> s - a folded into one product. The division is exact
    (README "What it computes"), so a remainder raises
    ``CoefficientMethodMismatch``. Then a_j = c^j k0^{j-1} (j-1)! N_j / n^j.
    """
    _at_least(order, 1, "order")
    n = params.n
    big, tie = [1, n], 4 * (n - 2)  # N_0, N_1
    for s in range(2, order + 1):
        h, base = s // 2, 2 * s * (s - 1)  # a = 1..h, each paired with s - a
        weights = [base + tie * a * (s - a) for a in range(1, h + 1)]
        if s % 2 == 0:
            weights[-1] //= 2  # the middle term a = s/2 has no partner
        products = map(mul, big[1 : h + 1], big[s - 1 : s - 1 - h : -1])
        quotient, remainder = divmod(-sum(map(mul, weights, products)), base)
        if remainder:
            raise CoefficientMethodMismatch(f"2s(s-1) does not divide the row sum at s={s}, n={n}")
        big.append(quotient)
    step = params.k0 * params.c
    num, den = params.c.numerator, params.c.denominator * n  # c (k0 c)^{j-1} (j-1)! / n^j
    values = []
    for j in range(1, order + 1):
        values.append(Fraction(num * big[j], den))
        num *= step.numerator * j
        den *= step.denominator * n
    return CoefficientSequence(tuple(values))


def u_coeffs(params: CalabiParams, order: int) -> CoefficientSequence:
    """The forward-substitution record, each a_j = N/D checked against the
    product formula's unreduced p/q as N q == p D, so each a_j is reduced once.

    A mismatch is an internal-consistency failure, not a user error, and
    raises ``CoefficientMethodMismatch`` naming the first bad index.
    """
    ode = u_coeffs_ode(params, order)
    for j, (a, (p, q)) in enumerate(zip(ode.values, _closed_ratios(params, order)), 1):
        if a.numerator * q != p * a.denominator:
            raise CoefficientMethodMismatch(
                f"coefficient routes disagree at j={j} for n={params.n}, k0={params.k0}, "
                f"c={params.c}: closed-form {Fraction(p, q)} vs forward substitution {a}"
            )
    return ode


def h_values(params: CalabiParams, m: Rational | int, r_max: int) -> tuple[Fraction, ...]:
    """h_r = (c k0)^r / r! S(n, m/k0, r) for r = 1..r_max, in O(n r_max)
    big-integer products, or O(r_max^2) when n is large against r_max.

    h_r = (1/r!) sum_{j=1}^{r} m^j B_{r,j}(a_1, ..., a_r); these are the
    r-th Taylor coefficients of e^{m u(x)} at 0, i.e. the scales of the
    degree-r blocks in the fiberwise expansion of the embedding candidate.
    S comes from the scan's kernel; row r_max is re-checked like a scan's.
    """
    m = _positive(m, "m")
    _at_least(r_max, 1, "r_max")
    q = m / params.k0
    rows = list(_s_rows(params.n, q, r_max))
    _recheck(params.n, q, r_max, rows[-1])
    return tuple(_scaled(params, rows))


def _scaled(params: CalabiParams, rows: list[Fraction]) -> list[Fraction]:
    """h_r = (c k0)^r / r! S_r for the rows S_1, S_2, ... of a scan; one reduction per h_r."""
    (sn, sd), num, den, scales = (params.c * params.k0).as_integer_ratio(), 1, 1, []
    for r, s in enumerate(rows, 1):
        num, den = num * sn, den * (sd * r)
        scales.append(Fraction(num * s.numerator, den * s.denominator))
    return scales


class ConditionReport(_Record):
    """Pointwise numeric check of the defining condition at one x.

    horizontal_factor = 1 + k0 x u'(x)   (must stay positive)
    fiber_factor      = u'(x) + x u''(x) (must stay positive)
    ode_residual      = (horizontal^{n-1} * fiber - c) / c
    imaginary_residue = largest |Im| left over by the complex closed form
    """

    horizontal_factor: float
    fiber_factor: float
    ode_residual: float
    imaginary_residue: float


def _double(value: Fraction, what: str) -> float:
    """``float(value)`` of a rational > 0, or ``InputError`` if it is
    infinite or zero there."""
    try:
        result = float(value)
    except OverflowError:
        result = math.inf
    if not 0 < result < math.inf:
        raise InputError(f"{what} {'overflows' if result else 'underflows'} a double")
    return result


# Largest imaginary residue ``ClosedFormEvaluator`` lets a value carry.
IMAG_TOL = 1e-10

# Work ceiling of ``ClosedFormEvaluator``, the largest n it accepts: it
# builds n - 1 roots of unity and every value loops over them, so its
# time and memory grow with the value of n.
EVAL_N_CEILING = 100_000


class ClosedFormEvaluator:
    """Double-precision evaluation of u, u', u'' from the closed form.

    The closed form is, with t(x) = (1 + n k0 c x)^{1/n} and
    tau = exp(2 pi i / n),

        u(x) = (n/k0)(t - 1)
               - sum_{j=1}^{n-1} ((1 - tau^j)/k0) log[(t - tau^j)/(1 - tau^j)]

    For x >= 0 the root t is real >= 1 and every log argument stays in
    the half plane Re > 0, so principal branches are safe and the
    imaginary parts cancel in conjugate pairs. An imaginary residue of u
    above ``IMAG_TOL`` means a branch was crossed and raises
    ``BranchResidueError`` instead of returning a silently wrong value; the
    u' and u'' sums take no log, so only rounding leaves them a residue,
    held to ``IMAG_TOL`` times max(1, sum of |term|). Out-of-range input
    raises ``InputError`` (README "Design notes", "The numeric layer is guarded").
    """

    def __init__(self, params: CalabiParams):
        if params.n > EVAL_N_CEILING:
            raise InputError(
                f"n {params.n} is above the work ceiling EVAL_N_CEILING = {EVAL_N_CEILING}"
            )
        self._n = params.n
        self._k0 = _double(params.k0, "k0")
        self._c = _double(params.c, "c")
        self._slope = _double(params.radicand_slope, "n k0 c")
        self._roots = tuple(
            cmath.exp(2j * cmath.pi * j / params.n) for j in range(1, params.n)
        )
        self._weights = tuple((1 - root) / self._k0 for root in self._roots)

    def _t(self, x: float) -> float:
        if not (math.isfinite(x) and x >= 0):
            raise InputError(f"x must be a finite number >= 0, got {x}")
        radicand = 1.0 + self._slope * x
        if not math.isfinite(radicand):
            raise InputError(f"the radicand 1 + n k0 c x overflows a double at x={x}")
        return radicand ** (1.0 / self._n)

    def _guard(self, value: complex, x: float, what: str, size: float = 1.0) -> tuple[float, float]:
        if not math.isfinite(value.real):
            raise InputError(f"{what} is not a finite double at x={x}")
        residue, tolerance = abs(value.imag), IMAG_TOL * max(1.0, size)
        if not residue <= tolerance:  # a NaN residue fails too
            raise BranchResidueError(
                f"imaginary residue {residue:.3e} in {what} at x={x} "
                f"exceeds tolerance {tolerance:.1e}"
            )
        return value.real, residue

    def u_with_residue(self, x: float) -> tuple[float, float]:
        """(u(x), imaginary residue of the complex sum)."""
        return self._guard(self._u_sum(self._t(x)), x, "u")

    def u(self, x: float) -> float:
        return self.u_with_residue(x)[0]

    def derivatives(self, x: float) -> tuple[float, float, float]:
        """(u(x), u'(x), u''(x)) by termwise differentiation, same guard."""
        return self._parts(x)[:3]

    def _u_sum(self, t: float) -> complex:
        u_acc = complex(self._n / self._k0 * (t - 1.0))
        for root, weight in zip(self._roots, self._weights):
            u_acc -= weight * cmath.log((t - root) / (1.0 - root))
        return u_acc

    def _parts(self, x: float) -> tuple[float, float, float, float]:
        t = self._t(x)
        dt = (self._slope / self._n) * t ** (1 - self._n)
        d2t = (self._slope / self._n) * (1 - self._n) * t ** (-self._n) * dt
        u_acc, u1_acc, u2_acc = (complex(self._n / self._k0 * v) for v in (t - 1.0, dt, d2t))
        size1, size2 = abs(u1_acc), abs(u2_acc)  # sum of |term| of the u' and u'' sums
        for root, weight in zip(self._roots, self._weights):  # the u terms exactly as in _u_sum
            gap = t - root
            u_acc -= weight * cmath.log(gap / (1.0 - root))
            term1, term2 = weight * dt / gap, weight * (d2t / gap - (dt * dt) / (gap * gap))
            u1_acc, u2_acc = u1_acc - term1, u2_acc - term2
            size1, size2 = size1 + abs(term1), size2 + abs(term2)
        sums = zip((u_acc, u1_acc, u2_acc), ("u", "u'", "u''"), (1.0, size1, size2))
        values, residues = zip(*(self._guard(value, x, *rest) for value, *rest in sums))
        return (*values, max(residues))

    def condition_report(self, x: float) -> ConditionReport:
        _, u1, u2, residue = self._parts(x)
        horizontal = 1.0 + self._k0 * x * u1
        fiber = u1 + x * u2
        residual = (horizontal ** (self._n - 1) * fiber - self._c) / self._c
        return ConditionReport(horizontal, fiber, residual, residue)

    def derivative_fd(self, x: float) -> float:
        """u'(x) by finite differences, independent of the formulas above.

        Central 2-point with h = 1e-5 (1 + x); second-order one-sided at
        the left endpoint where x - h would leave the domain.
        """
        h = 1e-5 * (1.0 + x)
        if x - h >= 0:
            return (self.u(x + h) - self.u(x - h)) / (2 * h)
        return (-3 * self.u(x) + 4 * self.u(x + h) - self.u(x + 2 * h)) / (2 * h)
