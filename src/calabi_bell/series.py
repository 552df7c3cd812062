"""Truncated formal power series with exact rational coefficients.

A series carries its coefficients c_0..c_order as an immutable tuple.
Arithmetic truncates at the smaller order of the two operands (the honest
order: higher coefficients of the product are not fully determined), and
scalar operations keep the order unchanged. Everything is exact; there is
no floating-point coefficient mode. Each product or ``exp_of`` coefficient
is one ``rationals._dot``, so it is normalized once.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from .rationals import Rational, _dot, _exact, _Record

__all__ = ["TruncatedSeries", "exp_of"]


class TruncatedSeries(_Record):
    """Coefficients (c_0, ..., c_order) of a series truncated at x^order.

    Equality is structural: same coefficients *and* same order. Instances
    are immutable and hashable.
    """

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("a truncated series needs at least the constant term")
        object.__setattr__(self, "coeffs", tuple(_exact(c) for c in self.coeffs))

    @classmethod
    def from_coefficients(cls, coeffs: Sequence[Rational | int]) -> "TruncatedSeries":
        return cls(tuple(coeffs))

    @classmethod
    def constant(cls, value: Rational | int, order: int) -> "TruncatedSeries":
        if order < 0:
            raise ValueError("order must be >= 0")
        return cls((_exact(value),) + (Fraction(0),) * order)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls.constant(0, order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.constant(1, order)

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        """The identity series x, truncated at the given order (>= 1)."""
        if order < 1:
            raise ValueError("the identity series needs order >= 1")
        return cls((Fraction(0), Fraction(1)) + (Fraction(0),) * (order - 1))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient index {k} outside 0..{self.order}")
        return self.coeffs[k]

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def truncate(self, order: int) -> "TruncatedSeries":
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate order-{self.order} series to order {order}")
        return TruncatedSeries(self.coeffs[: order + 1])

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
            a, b = self.coeffs, other.coeffs
            order = min(self.order, other.order)
            return TruncatedSeries(tuple(_dot(a[: k + 1], b[k::-1]) for k in range(order + 1)))
        value = _exact(other)
        return TruncatedSeries(tuple(value * c for c in self.coeffs))

    __rmul__ = __mul__

    def pow_int(self, exponent: int) -> "TruncatedSeries":
        """Integer power, exponent >= 0, by repeated squaring (truncated
        products associate); exponent 0 gives 1 at the same order."""
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self if exponent else TruncatedSeries.one(self.order)
        for bit in bin(exponent)[3:]:  # the bits after the leading one
            result = result * result
            if bit == "1":
                result = result * self
        return result

    __pow__ = pow_int

    def derivative(self) -> "TruncatedSeries":
        """Termwise d/dx; the result order drops by one (order >= 1 required)."""
        if self.order < 1:
            raise ValueError("cannot differentiate an order-0 series")
        return TruncatedSeries(tuple(k * self.coeffs[k] for k in range(1, self.order + 1)))

    def evaluate(self, point: Rational | int) -> Fraction:
        """Horner evaluation of the truncating polynomial at an exact point."""
        point = _exact(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __str__(self) -> str:
        return f"series[{', '.join(str(c) for c in self.coeffs)}]"


def exp_of(series: TruncatedSeries) -> TruncatedSeries:
    """exp of a series with zero constant term, same order, exact.

    Uses the derivative recurrence b' = a' b, i.e.
    k b_k = sum_{i=1}^{k} i a_i b_{k-i}, which keeps every coefficient
    rational; the i a_i are formed once. A nonzero constant term would
    drag in e^{c_0} and is rejected.
    """
    if series.coeffs[0] != 0:
        raise ValueError("exp_of requires a zero constant term")
    weighted = [i * a for i, a in enumerate(series.coeffs)]
    b = [Fraction(1)]
    for k in range(1, series.order + 1):
        b.append(_dot(weighted[1 : k + 1], b[::-1]) / k)
    return TruncatedSeries(tuple(b))
