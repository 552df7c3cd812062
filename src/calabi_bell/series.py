"""Truncated formal power series with exact rational coefficients.

A series carries its coefficients c_0..c_order as an immutable tuple.
Arithmetic truncates at the smaller order of the two operands (the honest
order: higher coefficients of the product are not fully determined), and
scalar operations keep the order unchanged. Everything is exact; there is
no floating-point coefficient mode. Products and ``exp_of`` hold each
operand as ints over a running common denominator (``rationals._common``),
so each output coefficient is one integer sum of products, normalized once.
``taylor_series`` and ``condition_series_residual`` expand the radial
potential of ``potential`` and its defining condition.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from operator import mul

from .potential import CalabiParams, CoefficientSequence, u_coeffs_ode
from .rationals import InputError, Rational, _at_least, _common, _exact, _Record


class TruncatedSeries(_Record):
    """Coefficients (c_0, ..., c_order) of a series truncated at x^order.

    Equality is structural: same coefficients *and* same order. Instances
    are immutable and hashable.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise InputError("a truncated series needs at least the constant term")
        object.__setattr__(self, "coeffs", tuple(_exact(c) for c in self.coeffs))

    @classmethod
    def constant(cls, value: Rational | int, order: int) -> "TruncatedSeries":
        _at_least(order, 0, "order")
        return cls((_exact(value),) + (Fraction(0),) * order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.constant(1, order)

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        """The identity series x, truncated at the given order (>= 1)."""
        _at_least(order, 1, "order")
        return cls((Fraction(0), Fraction(1)) + (Fraction(0),) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient index {k} outside 0..{self.order}")
        return self.coeffs[k]

    # -- ring operations ------------------------------------------------

    def __add__(self, other: "TruncatedSeries | Rational | int") -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            order = min(self.order, other.order)
            return TruncatedSeries(
                tuple(self.coeffs[k] + other.coeffs[k] for k in range(order + 1))
            )
        value = _exact(other)
        return TruncatedSeries((self.coeffs[0] + value,) + self.coeffs[1:])

    __radd__ = __add__

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "TruncatedSeries | Rational | int") -> "TruncatedSeries":
        return self + (-other if isinstance(other, TruncatedSeries) else -_exact(other))

    def __rsub__(self, other: Rational | int) -> "TruncatedSeries":
        return (-self) + _exact(other)

    def __mul__(self, other: "TruncatedSeries | Rational | int") -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            pairs = zip(_common(self.coeffs), _common(other.coeffs))
            sums = (Fraction(sum(map(mul, x, reversed(y))), dx * dy) for (x, dx), (y, dy) in pairs)
            return TruncatedSeries(tuple(sums))
        value = _exact(other)
        return TruncatedSeries(tuple(value * c for c in self.coeffs))

    __rmul__ = __mul__

    def pow_int(self, exponent: int) -> "TruncatedSeries":
        """Integer power, exponent >= 0, by repeated squaring (truncated
        products associate); exponent 0 gives 1 at the same order."""
        _at_least(exponent, 0, "exponent")
        result = self if exponent else TruncatedSeries.one(self.order)
        for bit in bin(exponent)[3:]:  # the bits after the leading one
            result = TruncatedSeries(tuple(_square(result.coeffs)))
            if bit == "1":
                result = result * self
        return result

    __pow__ = pow_int

    def derivative(self) -> "TruncatedSeries":
        """Termwise d/dx; the result order drops by one (order >= 1 required)."""
        if self.order < 1:
            raise InputError("cannot differentiate an order-0 series")
        return TruncatedSeries(tuple(k * self.coeffs[k] for k in range(1, self.order + 1)))

    def evaluate(self, point: Rational | int) -> Fraction:
        """Horner evaluation of the truncating polynomial at an exact point."""
        point = _exact(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc


def exp_of(series: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term, same order, exact.

    Uses the derivative recurrence b' = a' b, i.e.
    k b_k = sum_{i=1}^{k} i a_i b_{k-i}, which keeps every coefficient
    rational. The i a_i and the b_j so far are ints over running common
    denominators, and each new b_k joins the b ints the next row reads. A
    nonzero constant term would drag in e^{c_0} and is rejected.
    """
    if series.coeffs[0] != 0:
        raise InputError("exp_of requires a zero constant term")
    b = [Fraction(1)]
    weighted = _common(i * a for i, a in enumerate(series.coeffs[1:], 1))
    for k, ((w, dw), (y, dy)) in enumerate(zip(weighted, _common(b)), 1):
        b.append(Fraction(sum(map(mul, w, reversed(y))), dw * dy * k))
    return TruncatedSeries(tuple(b))


def taylor_series(coeffs: CoefficientSequence) -> TruncatedSeries:
    """u as an exact truncated series: constant term 0, [x^j] = a_j / j!."""
    terms = [Fraction(0)] + [a / math.factorial(j) for j, a in enumerate(coeffs.values, 1)]
    return TruncatedSeries(tuple(terms))


def condition_series_residual(params: CalabiParams, order: int) -> TruncatedSeries:
    """(1 + k0 x u')^{n-1} (u' + x u'') - c as an exact truncated series.

    Built from the forward-substitution coefficients with the generic
    series arithmetic: an independent re-expansion of the original,
    untransformed condition, so it also checks the change of variables
    inside ``u_coeffs_ode``. Identically zero through the requested order
    when the solver is consistent.
    """
    depth = _at_least(order, 1, "order") + 1
    seq = u_coeffs_ode(params, depth + 1)
    u_prime = TruncatedSeries(tuple(seq.values[k] / math.factorial(k) for k in range(depth + 1)))
    u_second = u_prime.derivative()
    # x * s at the order of s is the shift (0, s_0, ..., s_{order-1}).
    horizontal = 1 + params.k0 * TruncatedSeries((Fraction(0), *u_prime.coeffs[:-1]))
    fiber = u_prime + TruncatedSeries((Fraction(0), *u_second.coeffs[:-1]))
    return horizontal.pow_int(params.n - 1) * fiber - params.c


def _square(coeffs: tuple[Fraction, ...]) -> Iterator[Fraction]:
    """The coefficients of the series squared: each pair i != k - i
    multiplied once and doubled, plus the middle term when k is even."""
    for k, (x, den) in enumerate(_common(coeffs)):
        middle = 0 if k % 2 else x[k // 2] ** 2
        yield Fraction(2 * sum(map(mul, x[: (k + 1) // 2], reversed(x))) + middle, den * den)
