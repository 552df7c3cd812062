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
  no knowledge of the product formula. With y = k0 c x and
  u'(x) = c f(y) the condition becomes (1 + y f)^{n-1} (f + y f') = 1,
  i.e. (1 + W)^{n-1} W' = 1 for W = y f, W(0) = 0; differentiated once,
  W'' (1 + W) = -(n-1) W'^2. The derivatives d_r = W^(r+1)(0) obey an
  all-integer recurrence (below), and a_j = c^j k0^{j-1} d_{j-1} / j;
* ``u_coeffs``: both, with exact agreement enforced;
* ``ClosedFormEvaluator``: double-precision values of u, u', u'' away
  from 0, via the n-th root t(x) = (1 + n k0 c x)^{1/n} and
  principal-branch logarithms against the nontrivial n-th roots of
  unity (the imaginary parts must cancel; a residue above tolerance
  raises rather than silently returning a wrong branch);
* ``h_r`` / ``h_values``: the exact constants
  h_r = (1/r!) sum_j m^j B_{r,j}(a_1..a_r) that scale the degree-r
  blocks of e^{m u} - 1, as (c k0)^r / r! S(n, m/k0, r) from ``inequality``.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .inequality import _recheck, _s_rows
from .rationals import Rational, _exact, _Record, factorial
from .series import TruncatedSeries

__all__ = [
    "CalabiParams",
    "CoefficientSequence",
    "CoefficientMethodMismatch",
    "BranchResidueError",
    "u_coeffs_closed",
    "u_coeffs_ode",
    "u_coeffs",
    "taylor_series",
    "condition_series_residual",
    "HrValue",
    "h_r",
    "h_values",
    "ConditionReport",
    "ClosedFormEvaluator",
]


class CoefficientMethodMismatch(ArithmeticError):
    """The closed-form and forward-substitution coefficient routes disagreed."""


class BranchResidueError(ArithmeticError):
    """Imaginary parts of the closed form failed to cancel within tolerance."""


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
        if not isinstance(self.n, int) or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n!r}")
        object.__setattr__(self, "k0", _exact(self.k0, "k0"))
        object.__setattr__(self, "c", _exact(self.c, "c"))
        if self.k0 <= 0:
            raise ValueError(f"k0 must be positive, got {self.k0}")
        if self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c}")

    @property
    def radicand_slope(self) -> Fraction:
        """n * k0 * c: the slope inside the n-th root of the closed form.

        Also the reciprocal of the Taylor radius of convergence at 0.
        """
        return self.n * self.k0 * self.c


class CoefficientSequence(_Record):
    """Exact derivatives a_j = u^(j)(0) for j = 1..order."""

    params: CalabiParams
    values: tuple[Fraction, ...]
    method: str

    _METHODS = ("closed-form", "ode", "cross-checked")

    def __post_init__(self) -> None:
        if self.method not in self._METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        object.__setattr__(self, "values", tuple(_exact(v, "a_j") for v in self.values))

    @property
    def order(self) -> int:
        return len(self.values)

    def a(self, j: int) -> Fraction:
        """The j-th derivative at 0, 1-based."""
        if not 1 <= j <= self.order:
            raise IndexError(f"derivative index {j} outside 1..{self.order}")
        return self.values[j - 1]


def u_coeffs_closed(params: CalabiParams, order: int) -> CoefficientSequence:
    """Derivatives at 0 from the explicit product formula.

    a_j = ((-1)^{j+1} / j) * c^j * k0^{j-1} * prod_{s=1}^{j-1} (n s - 1).

    The product is never zero for n >= 2, so the signs alternate strictly
    starting from a_1 = c > 0. Integers throughout; one reduction per a_j.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    (cn, cd), (kn, kd) = params.c.as_integer_ratio(), params.k0.as_integer_ratio()
    num, den, values = cn, cd, []
    for j in range(1, order + 1):
        values.append(Fraction(num, den * j))
        num *= -cn * kn * (params.n * j - 1)
        den *= cd * kd
    return CoefficientSequence(params, tuple(values), "closed-form")


def u_coeffs_ode(params: CalabiParams, order: int) -> CoefficientSequence:
    """Derivatives at 0 by forward substitution on the defining condition.

    Substituting y = k0 c x and u'(x) = c f(y) turns the condition into
    (1 + y f)^{n-1} (f + y f') = 1. With W = y f this reads
    (1 + W)^{n-1} W' = 1, W(0) = 0, so W'(0) = 1; differentiated once,

        W'' (1 + W) = -(n-1) W'^2.

    Leibniz's rule on both sides, in the exponential coefficients
    d_r = W^(r+1)(0), d_0 = 1, gives

        d_{r+1} = -(n-1) sum_{i=0}^{r} C(r,i) d_i d_{r-i}
                  - sum_{i=0}^{r-1} C(r,i) d_{i+1} d_{r-1-i}.

    Both sums run over the products d_k d_{r-k}: with g_k =
    (n-1) C(r,k) + C(r,k-1), d_{r+1} = -sum_{k=0}^{r} g_k d_k d_{r-k},
    and folding k with r - k halves the big-integer products. Every term
    is an int; the binomial row is updated by Pascal's rule. Undoing the
    substitution, a_j = c^j k0^{j-1} d_{j-1} / j: one exact division
    per coefficient.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    alpha = params.n - 1
    d = [1]
    row = [1]  # C(r, 0..r)
    for r in range(order - 1):
        total = 0
        for k in range(r // 2 + 1):
            below = row[k - 1] if k else 0
            if 2 * k < r:  # g_k + g_{r-k}
                weight = 2 * alpha * row[k] + below + row[k + 1]
            else:  # the middle term k = r/2 has no partner
                weight = alpha * row[k] + below
            total += weight * d[k] * d[r - k]
        d.append(-total)
        row = [1] + [row[i - 1] + row[i] for i in range(1, r + 1)] + [1]
    step = params.k0 * params.c
    num, den = params.c.numerator, params.c.denominator  # c (k0 c)^{j-1}
    values = []
    for j, d_j in enumerate(d, start=1):
        values.append(Fraction(num * d_j, den * j))
        num *= step.numerator
        den *= step.denominator
    return CoefficientSequence(params, tuple(values), "ode")


def u_coeffs(params: CalabiParams, order: int) -> CoefficientSequence:
    """Both routes, compared entry by entry; exact agreement is mandatory.

    A mismatch is an internal-consistency failure, not a user error, and
    raises ``CoefficientMethodMismatch`` naming the first bad index.
    """
    closed = u_coeffs_closed(params, order)
    ode = u_coeffs_ode(params, order)
    if closed.values != ode.values:
        for j in range(1, order + 1):
            if closed.a(j) != ode.a(j):
                raise CoefficientMethodMismatch(
                    f"coefficient routes disagree at j={j} for n={params.n}, "
                    f"k0={params.k0}, c={params.c}: "
                    f"closed-form {closed.a(j)} vs forward substitution {ode.a(j)}"
                )
    return CoefficientSequence(params, ode.values, "cross-checked")


def taylor_series(coeffs: CoefficientSequence) -> TruncatedSeries:
    """u as an exact truncated series: constant term 0, [x^j] = a_j / j!."""
    terms = [Fraction(0)] + [coeffs.a(j) / factorial(j) for j in range(1, coeffs.order + 1)]
    return TruncatedSeries(tuple(terms))


def condition_series_residual(params: CalabiParams, order: int) -> TruncatedSeries:
    """(1 + k0 x u')^{n-1} (u' + x u'') - c as an exact truncated series.

    Built from the forward-substitution coefficients with the generic
    series arithmetic: an independent re-expansion of the original,
    untransformed condition, so it also checks the change of variables
    inside ``u_coeffs_ode``. Identically zero through the requested order
    when the solver is consistent.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    depth = order + 1
    seq = u_coeffs_ode(params, depth + 1)
    u_prime = TruncatedSeries(tuple(seq.values[k] / factorial(k) for k in range(depth + 1)))
    x = TruncatedSeries.x(depth)
    horizontal = 1 + params.k0 * (x * u_prime)
    fiber = u_prime + x * u_prime.derivative()
    return horizontal.pow_int(params.n - 1) * fiber - params.c


class HrValue(_Record):
    """One block-scale constant: h_r at twist multiple m."""

    r: int
    m: Fraction
    value: Fraction


def h_values(params: CalabiParams, m: Rational | int, r_max: int) -> tuple[HrValue, ...]:
    """h_r = (c k0)^r / r! S(n, m/k0, r) for r = 1..r_max, in O(n r_max)
    big-integer products, or O(r_max^2) when n is large against r_max.

    h_r = (1/r!) sum_{j=1}^{r} m^j B_{r,j}(a_1, ..., a_r); these are the
    r-th Taylor coefficients of e^{m u(x)} at 0, i.e. the scales of the
    degree-r blocks in the fiberwise expansion of the embedding candidate.
    S comes from the scan's kernel; row r_max is re-checked like a scan's.
    """
    m = _exact(m, "m")
    if m <= 0:
        raise ValueError(f"m must be positive, got {m}")
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    q = m / params.k0
    rows = list(_s_rows(params.n, q, r_max))
    _recheck(params.n, q, r_max, rows[-1])
    return tuple(HrValue(r, m, h) for r, h in enumerate(_scaled(params, rows), 1))


def _scaled(params: CalabiParams, rows: list[Fraction]) -> list[Fraction]:
    """h_r = (c k0)^r / r! S_r for the rows S_1, S_2, ... of a scan."""
    step, factor, scales = params.c * params.k0, Fraction(1), []
    for r, s in enumerate(rows, 1):
        factor = factor * step / r
        scales.append(factor * s)
    return scales


def h_r(params: CalabiParams, m: Rational | int, r: int) -> HrValue:
    """A single block-scale constant; see ``h_values`` for batches."""
    return h_values(params, m, r)[-1]


class ConditionReport(_Record):
    """Pointwise numeric check of the defining condition at one x.

    horizontal_factor = 1 + k0 x u'(x)   (must stay positive)
    fiber_factor      = u'(x) + x u''(x) (must stay positive)
    ode_residual      = (horizontal^{n-1} * fiber - c) / c
    imaginary_residue = largest |Im| left over by the complex closed form
    """

    x: float
    horizontal_factor: float
    fiber_factor: float
    ode_residual: float
    imaginary_residue: float


class ClosedFormEvaluator:
    """Double-precision evaluation of u, u', u'' from the closed form.

    The closed form is, with t(x) = (1 + n k0 c x)^{1/n} and
    tau = exp(2 pi i / n),

        u(x) = (n/k0)(t - 1)
               - sum_{j=1}^{n-1} ((1 - tau^j)/k0) log[(t - tau^j)/(1 - tau^j)]

    For x >= 0 the root t is real >= 1 and every log argument stays in
    the half plane Re > 0, so principal branches are safe and the
    imaginary parts cancel in conjugate pairs. The leftover imaginary
    residue is checked against ``imag_tol`` on every call; exceeding it
    means a branch was crossed and raises ``BranchResidueError`` instead
    of returning a silently wrong value. An x whose radicand or value of
    u, u' or u'' does not fit in a double raises ``ValueError``.
    """

    def __init__(self, params: CalabiParams, imag_tol: float = 1e-10):
        self.params = params
        self.imag_tol = float(imag_tol)
        self._n = params.n
        self._k0 = float(params.k0)
        self._c = float(params.c)
        self._slope = float(params.radicand_slope)
        self._roots = tuple(
            cmath.exp(2j * cmath.pi * j / params.n) for j in range(1, params.n)
        )
        self._weights = tuple((1 - root) / self._k0 for root in self._roots)

    def _t(self, x: float) -> float:
        if not (math.isfinite(x) and x >= 0):
            raise ValueError(f"the potential is defined for finite x >= 0, got {x}")
        radicand = 1.0 + self._slope * x
        if not math.isfinite(radicand):
            raise ValueError(f"the radicand 1 + n k0 c x overflows a double at x={x}")
        return radicand ** (1.0 / self._n)

    def _guard(self, value: complex, x: float, what: str) -> tuple[float, float]:
        if not math.isfinite(value.real):
            raise ValueError(f"{what} is not a finite double at x={x}")
        residue = abs(value.imag)
        if not residue <= self.imag_tol:  # a NaN residue fails too
            raise BranchResidueError(
                f"imaginary residue {residue:.3e} in {what} at x={x} "
                f"exceeds tolerance {self.imag_tol:.1e}"
            )
        return value.real, residue

    def u_with_residue(self, x: float) -> tuple[float, float]:
        """(u(x), imaginary residue of the complex sum)."""
        t = self._t(x)
        total = complex(self._n / self._k0 * (t - 1.0))
        for root, weight in zip(self._roots, self._weights):
            total -= weight * cmath.log((t - root) / (1.0 - root))
        return self._guard(total, x, "u")

    def u(self, x: float) -> float:
        return self.u_with_residue(x)[0]

    def derivatives(self, x: float) -> tuple[float, float, float]:
        """(u(x), u'(x), u''(x)) by termwise differentiation, same guard."""
        u_val, u1_val, u2_val, _ = self._parts(x)
        return u_val, u1_val, u2_val

    def _parts(self, x: float) -> tuple[float, float, float, float]:
        t = self._t(x)
        dt = (self._slope / self._n) * t ** (1 - self._n)
        d2t = (self._slope / self._n) * (1 - self._n) * t ** (-self._n) * dt
        u_acc = complex(self._n / self._k0 * (t - 1.0))
        u1_acc = complex(self._n / self._k0 * dt)
        u2_acc = complex(self._n / self._k0 * d2t)
        for root, weight in zip(self._roots, self._weights):
            gap = t - root
            u_acc -= weight * cmath.log(gap / (1.0 - root))
            u1_acc -= weight * dt / gap
            u2_acc -= weight * (d2t / gap - (dt * dt) / (gap * gap))
        u_val, res0 = self._guard(u_acc, x, "u")
        u1_val, res1 = self._guard(u1_acc, x, "u'")
        u2_val, res2 = self._guard(u2_acc, x, "u''")
        return u_val, u1_val, u2_val, max(res0, res1, res2)

    def condition_report(self, x: float) -> ConditionReport:
        _, u1, u2, residue = self._parts(x)
        horizontal = 1.0 + self._k0 * x * u1
        fiber = u1 + x * u2
        residual = (horizontal ** (self._n - 1) * fiber - self._c) / self._c
        return ConditionReport(x, horizontal, fiber, residual, residue)

    def derivative_fd(self, x: float, step: float | None = None) -> float:
        """u'(x) by finite differences, independent of the formulas above.

        Central 2-point with h = 1e-5 (1 + x) by default; second-order
        one-sided at the left endpoint where x - h would leave the domain.
        """
        h = step if step is not None else 1e-5 * (1.0 + x)
        if x - h >= 0:
            return (self.u(x + h) - self.u(x - h)) / (2 * h)
        return (-3 * self.u(x) + 4 * self.u(x + h) - self.u(x + 2 * h)) / (2 * h)
