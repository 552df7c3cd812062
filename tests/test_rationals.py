"""Contract tests for the exact scalar layer.

The scalar type is stdlib Fraction; these tests pin the behavior the rest
of the package depends on (canonical form, exact field ops, pow with
negative exponents, big factorials) plus the package's own parse/format
pair and generalized binomials.
"""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from calabi_bell.potential import CalabiParams
from calabi_bell.rationals import (
    InputError,
    _at_least,
    _dot,
    _positive,
    factorial,
    format_rational,
    generalized_binomial,
    parse_rational,
)

rationals = st.fractions(max_denominator=10**6)
# _dot's inputs: Fractions and ints, with zeros and negatives drawn often.
dot_scalars = st.one_of(st.just(0), st.just(Fraction(0)), st.integers(-(10**9), 10**9), rationals)


class TestCanonicalForm:
    def test_gcd_normalized(self):
        assert Fraction(2, 4) == Fraction(1, 2)
        assert Fraction(2, 4).numerator == 1
        assert Fraction(2, 4).denominator == 2

    def test_denominator_positive_sign_on_numerator(self):
        v = Fraction(3, -6)
        assert v.numerator == -1 and v.denominator == 2
        v = Fraction(-3, -6)
        assert v.numerator == 1 and v.denominator == 2

    def test_zero_canonical(self):
        assert Fraction(0, 17).denominator == 1

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1, 0)


class TestParseFormat:
    def test_examples(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-3/6") == Fraction(-1, 2)
        assert parse_rational("7") == 7
        assert parse_rational("+5/10") == Fraction(1, 2)

    def test_format_examples(self):
        assert format_rational(Fraction(-1, 2)) == "-1/2"
        assert format_rational(Fraction(4, 2)) == "2"
        assert format_rational(0) == "0"

    @pytest.mark.parametrize("bad", ["", "1.5", "1/-2", "a", "1/0", "1/2/3", "1e3", "--1"])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @given(rationals)
    def test_round_trip(self, value):
        assert parse_rational(format_rational(value)) == value

    @pytest.mark.parametrize(
        "value",
        [0, 7, -7, 10**12, Fraction(-1, 2), "6/4", "-10/25", " +14 / 21 ", "-0/5", "9/3",
         10**999, -(10**999) + 1, Fraction(10**999 + 1, 3 * 10**998), f"-{10**999}/{2 * 10**500}"],
    )
    def test_format_is_str_of_the_fraction(self, value):
        exact = Fraction(value.replace(" ", "")) if isinstance(value, str) else Fraction(value)
        text = format_rational(value)
        assert text == str(exact)
        assert parse_rational(text) == exact

    def test_format_of_1000_digit_values(self):
        rng = random.Random(20261022)
        for _ in range(20):
            p = rng.choice((-1, 1)) * rng.randrange(10**999, 10**1000)
            q = rng.randrange(1, 10**1000)
            for value in (p, Fraction(p, q)):
                text = format_rational(value)
                assert text == str(Fraction(value))
                assert parse_rational(text) == value

    def test_round_trip_seeded(self):
        rng = random.Random(20260814)
        for _ in range(200):
            v = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**9))
            assert parse_rational(format_rational(v)) == v


class TestFieldOps:
    def test_examples(self):
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
        assert Fraction(2, 3) ** 2 == Fraction(4, 9)
        assert Fraction(1, 2) ** -3 == 8
        assert Fraction(7, 3) ** 0 == 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1) / Fraction(0)
        with pytest.raises(ZeroDivisionError):
            Fraction(0) ** -1

    @given(rationals, rationals, rationals)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(rationals)
    def test_inverses(self, a):
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1

    @given(rationals)
    def test_result_always_canonical(self, a):
        v = a * 6 / 3
        assert math.gcd(v.numerator, v.denominator) == 1
        assert v.denominator > 0


class TestDot:
    @given(st.lists(st.tuples(dot_scalars, dot_scalars), max_size=16))
    def test_equals_plain_sum_in_lowest_terms(self, pairs):
        value = _dot([x for x, _ in pairs], [y for _, y in pairs])
        assert type(value) is Fraction
        assert value == sum((Fraction(x) * y for x, y in pairs), Fraction(0))
        assert math.gcd(value.numerator, value.denominator) == 1
        assert value.denominator > 0

    def test_examples(self):
        assert _dot([], []) == 0
        assert _dot([0, Fraction(0)], [Fraction(5, 7), 3]) == 0
        assert _dot([Fraction(1, 2), Fraction(1, 3)], [Fraction(2, 3), -1]) == 0
        assert _dot([Fraction(1, 6), Fraction(1, 10)], [3, 5]).denominator == 1
        assert _dot([2, Fraction(-3, 4)], [Fraction(1, 4), Fraction(2, 9)]) == Fraction(1, 3)


class TestCombinatorics:
    def test_factorial_small(self):
        assert [factorial(k) for k in range(6)] == [1, 1, 2, 6, 24, 120]

    def test_factorial_512(self):
        value = factorial(512)
        assert value == math.factorial(512)
        assert value % 512 == 0
        assert len(str(value)) == 1167

    def test_generalized_matches_integer_case(self):
        for n in range(9):
            for k in range(12):
                assert generalized_binomial(n, k) == math.comb(n, k)

    def test_generalized_examples(self):
        assert generalized_binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
        assert [generalized_binomial(3, k) for k in range(1, 4)] == [3, 3, 1]
        assert generalized_binomial(Fraction(-2), 3) == -4  # C(-2,3) = (-2)(-3)(-4)/6

    def test_generalized_rejects_negative_k(self):
        with pytest.raises(ValueError):
            generalized_binomial(Fraction(1, 2), -1)

    def test_generalized_pascal_rule(self):
        rng = random.Random(7)
        for _ in range(100):
            a = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            k = rng.randint(1, 12)
            lhs = generalized_binomial(a + 1, k)
            rhs = generalized_binomial(a, k) + generalized_binomial(a, k - 1)
            assert lhs == rhs


class TestInputRules:
    def test_input_error_is_a_value_error(self):
        assert issubclass(InputError, ValueError)
        try:
            _at_least(1, 2, "n")
        except ValueError as exc:  # how a library caller catches it
            assert type(exc) is InputError
        else:
            pytest.fail("no refusal")

    def test_at_least(self):
        assert _at_least(2, 2, "n") == 2
        assert _at_least(10**30, -5, "k") == 10**30
        for bad in (1, -2, Fraction(3), 2.0, "3", None):
            with pytest.raises(InputError) as caught:
                _at_least(bad, 2, "n")
            assert str(caught.value) == f"n must be an integer >= 2, got {bad!r}"

    def test_positive(self):
        assert _positive("3/4", "q") == Fraction(3, 4)
        assert type(_positive(True, "q")) is Fraction
        for bad, shown in ((0, "0"), (Fraction(-1, 2), "-1/2"), ("-6/8", "-3/4")):
            with pytest.raises(InputError) as caught:
                _positive(bad, "q")
            assert str(caught.value) == f"q must be positive, got {shown}"
        with pytest.raises(TypeError, match="must be exact"):
            _positive(0.5, "q")
        with pytest.raises(InputError, match="not a rational"):
            _positive("0.5", "q")

    @pytest.mark.skipif(
        not getattr(sys, "get_int_max_str_digits", int)(), reason="no int-string digit limit"
    )
    @pytest.mark.parametrize(
        "text", ["1" * 5000, "-" + "7" * 5000, "3/" + "1" * 5000, "1" * 5000 + "/" + "3" * 5000]
    )
    def test_digits_past_the_interpreter_limit(self, text):
        # int() refuses a string past sys.get_int_max_str_digits() with a
        # plain ValueError; the library refuses it as its own InputError.
        limit = sys.get_int_max_str_digits()
        expected = f"p or q is past the digit limit {limit}"
        with pytest.raises(InputError) as caught:
            parse_rational(text)
        assert str(caught.value) == expected
        with pytest.raises(InputError, match=expected):
            CalabiParams(2, text, 1)
        with pytest.raises(InputError, match=expected):
            CalabiParams(2, 1, text)
        assert parse_rational("1" * limit) == int("1" * limit)
