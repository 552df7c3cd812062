"""Exact rational scalars and shared combinatorial helpers.

All exact computation in this package runs over ``fractions.Fraction``,
which already guarantees the canonical form we rely on everywhere:
gcd-normalized, denominator positive, sign carried by the numerator.
Integers are plain Python ``int`` and never overflow.

What this module adds is the thin contract layer the rest of the package
(and the CLI) needs on top of the stdlib:

* the one exactness gate, ``_exact``: every value entering the exact
  layer (Bell inputs, potential parameters, scan ratios, series scalars,
  matrix entries, and this module's own helpers) passes through it; a
  ``float`` raises ``TypeError`` there and a string must pass
  ``parse_rational``, as every CLI flag does,
* ``InputError``, the ``ValueError`` of every input value the package
  refuses, and the two range rules the other modules call: ``_at_least``
  (an int >= a bound) and ``_positive`` (``_exact``, then > 0),
* the three consistency errors ``cli.main`` catches, here so catching
  them loads neither ``potential`` nor ``bell``,
* strict ``"p/q"`` parsing and rendering (the textual form used in JSON
  and CSV output; decimal strings are rejected so nothing silently goes
  through floating point),
* generalized binomial coefficients with rational upper argument
  (non-integer diastasis exponents),
* ``_dot``, the exact sum of products of the Bell recurrences (the
  series layer keeps its operands as ints over a common denominator),
* ``_Record``, the base of the package's immutable value classes.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from fractions import Fraction
from math import factorial

# The exact scalar type. Alias so call sites read as intent, not plumbing.
Rational = Fraction

_RATIONAL_RE = re.compile(r"^\s*([+-]?\d+)\s*(?:/\s*(\d+)\s*)?$")


class InputError(ValueError):
    """An input value outside its domain: the package's one refusal type."""


class CoefficientMethodMismatch(ArithmeticError):
    """The two coefficient routes disagreed, or a forward division was inexact."""


class BranchResidueError(ArithmeticError):
    """Imaginary parts of the closed form failed to cancel within tolerance."""


class BellConsistencyError(ArithmeticError):
    """A scan's integer kernel disagreed with the Bell triangle over x_l
    (``inequality._recheck``), or one of its exact divisions left a remainder."""


def _at_least(value: int, low: int, what: str) -> int:
    """``value``, an int >= ``low``, or ``InputError``."""
    if not (isinstance(value, int) and value >= low):
        raise InputError(f"{what} must be an integer >= {low}, got {value!r}")
    return value


def _positive(value: Rational | int | str, what: str) -> Fraction:
    """``_exact(value)``, which must be > 0, or ``InputError``."""
    value = _exact(value, what)
    if value <= 0:
        raise InputError(f"{what} must be positive, got {value}")
    return value


def _exact(value: Rational | int | str, what: str = "value") -> Fraction:
    """``Fraction(value)`` (a ``Fraction`` itself comes back as is), refusing
    a float and reading a string with ``parse_rational``: the exact layer's
    one gate."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(f"{what} must be exact (int, Fraction, or 'p/q'), not float")
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


def parse_rational(text: str) -> Rational:
    """Parse ``"p/q"`` (or a bare integer ``"p"``) into a canonical rational.

    The sign, if any, belongs to the numerator. Decimal notation is
    rejected: this parser exists precisely so that exact inputs never
    take a detour through floats.
    """
    match = _RATIONAL_RE.match(text)
    if match is None:
        raise InputError(f"not a rational 'p/q': {text!r}")
    numerator = int(match.group(1))
    if match.group(2) is None:
        return Fraction(numerator)
    denominator = int(match.group(2))
    if denominator == 0:
        raise InputError(f"zero denominator: {text!r}")
    return Fraction(numerator, denominator)


def format_rational(value: Rational | int) -> str:
    """Render as ``"p/q"`` with the sign on p; bare ``"p"`` when q == 1."""
    value = _exact(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def generalized_binomial(a: Rational | int, k: int) -> Rational:
    """Binomial coefficient C(a, k) = a(a-1)...(a-k+1)/k! for rational a.

    Agrees with ``math.comb`` whenever a is a non-negative integer, and is
    the coefficient of x^k in the binomial series of (1+x)^a otherwise.
    """
    _at_least(k, 0, "k")
    a = _exact(a, "a")
    numerator = Fraction(1)
    for i in range(k):
        numerator *= a - i
    return numerator / factorial(k)


def _dot(xs: Sequence[Rational | int], ys: Sequence[Rational | int]) -> Fraction:
    """sum(x * y for x, y in zip(xs, ys)), exactly, on ``as_integer_ratio()``:
    zero numerators skipped, one running common denominator, one reduction."""
    num, den = 0, 1
    for x, y in zip(xs, ys):
        xn, xd = x.as_integer_ratio()
        yn, yd = y.as_integer_ratio()
        if xn and yn:
            pd = xd * yd
            g = math.gcd(den, pd)
            num, den = num * (pd // g) + xn * yn * (den // g), den // g * pd
    return Fraction(num, den)


class _Record:
    """An immutable value class whose fields are its own annotations, in order.

    Positional or keyword construction, then ``__post_init__`` (which
    normalizes with ``object.__setattr__``); field-wise ``==`` and
    ``hash``; a ``Name(field=value, ...)`` repr; ``AttributeError`` on
    assignment. Plain methods, so importing the package compiles no
    generated code and loads no ``inspect``/``ast`` chain.
    """

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if len(args) + len(kwargs) != len(names) or (
            kwargs and not kwargs.keys() <= set(names[len(args) :])
        ):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        self.__dict__.update(zip(names, args), **kwargs)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
