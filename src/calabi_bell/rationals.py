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
* strict ``"p/q"`` parsing and rendering (the textual form used in JSON
  and CSV output; decimal strings are rejected so nothing silently goes
  through floating point),
* factorials and binomial coefficients (stdlib ``math``, re-exported so
  call sites stay uniform),
* generalized binomial coefficients with rational upper argument, which
  the diastasis code needs for non-integer exponents,
* ``_dot``, the one exact sum of products (series, Bell recurrences),
* ``_Record``, the base of the package's immutable value classes.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from fractions import Fraction

__all__ = [
    "Rational",
    "rational",
    "parse_rational",
    "format_rational",
    "factorial",
    "binomial",
    "generalized_binomial",
]

# The exact scalar type. Alias so call sites read as intent, not plumbing.
Rational = Fraction

_RATIONAL_RE = re.compile(r"^\s*([+-]?\d+)\s*(?:/\s*(\d+)\s*)?$")


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


def rational(numerator: int | str | Rational, denominator: int | None = None) -> Rational:
    """Build a canonical rational from ints, a Fraction, or a 'p/q' string."""
    if denominator is None:
        return _exact(numerator)
    if isinstance(numerator, str):
        raise TypeError("denominator not allowed with a string argument")
    return Fraction(numerator, denominator)


def parse_rational(text: str) -> Rational:
    """Parse ``"p/q"`` (or a bare integer ``"p"``) into a canonical rational.

    The sign, if any, belongs to the numerator. Decimal notation is
    rejected: this parser exists precisely so that exact inputs never
    take a detour through floats.
    """
    match = _RATIONAL_RE.match(text)
    if match is None:
        raise ValueError(f"not a rational 'p/q': {text!r}")
    numerator = int(match.group(1))
    if match.group(2) is None:
        return Fraction(numerator)
    denominator = int(match.group(2))
    if denominator == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(numerator, denominator)


def format_rational(value: Rational | int) -> str:
    """Render as ``"p/q"`` with the sign on p; bare ``"p"`` when q == 1."""
    value = _exact(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def factorial(n: int) -> int:
    return math.factorial(n)


def binomial(n: int, k: int) -> int:
    """C(n, k) for non-negative integers; 0 when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial expects non-negative integer arguments")
    return math.comb(n, k)


def generalized_binomial(a: Rational | int, k: int) -> Rational:
    """Binomial coefficient C(a, k) = a(a-1)...(a-k+1)/k! for rational a.

    Agrees with ``binomial`` whenever a is a non-negative integer, and is
    the coefficient of x^k in the binomial series of (1+x)^a otherwise.
    """
    if k < 0:
        raise ValueError("lower index must be a non-negative integer")
    a = _exact(a, "a")
    numerator = Fraction(1)
    for i in range(k):
        numerator *= a - i
    return numerator / math.factorial(k)


def _dot(xs: Sequence[Rational | int], ys: Sequence[Rational | int]) -> Fraction:
    """sum(x * y for x, y in zip(xs, ys)), exactly: zero terms skipped,
    products added on one running common denominator, one reduction."""
    num, den = 0, 1
    for x, y in zip(xs, ys):
        if x and y:
            pn, pd = x.numerator * y.numerator, x.denominator * y.denominator
            g = math.gcd(den, pd)
            num, den = num * (pd // g) + pn * (den // g), den // g * pd
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
