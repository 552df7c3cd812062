"""Truncated series tests: ring laws at min-order truncation, derivative,
exp, the bridge between exp and complete Bell polynomials, and the product,
power and exp against plain-``Fraction`` schoolbook references."""

import random
import time
from fractions import Fraction

import pytest

from calabi_bell.bell import complete_bell
from calabi_bell.potential import CalabiParams, h_values, u_coeffs_closed
from calabi_bell.rationals import factorial, generalized_binomial
from calabi_bell.series import TruncatedSeries, exp_of, taylor_series

PRIMES = [p for p in range(2, 1000) if all(p % d for d in range(2, int(p**0.5) + 1))]


def random_series(rng, order, span=9):
    return TruncatedSeries(
        tuple(Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(order + 1))
    )


def mixed_series(rng, order):
    """Coefficients that mix zeros, integers and proper fractions."""
    choices = (
        lambda: Fraction(0),
        lambda: Fraction(rng.randint(-9, 9)),
        lambda: Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
    )
    return TruncatedSeries(tuple(rng.choice(choices)() for _ in range(order + 1)))


def prime_series(rng, primes):
    """a_i = +-1/p_i over distinct primes, so every coefficient brings a new
    factor into the common denominator."""
    return TruncatedSeries(tuple(Fraction(rng.choice((-1, 1)), p) for p in primes))


def schoolbook_product(a, b):
    """Truncated product by the double loop on plain Fractions."""
    order = min(len(a), len(b)) - 1
    out = [Fraction(0)] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += a[i] * b[j]
    return tuple(out)


def schoolbook_exp(a):
    """exp by k b_k = sum_i i a_i b_{k-i} on plain Fractions."""
    b = [Fraction(1)]
    for k in range(1, len(a)):
        b.append(sum((i * a[i] * b[k - i] for i in range(1, k + 1)), Fraction(0)) / k)
    return tuple(b)


class TestBasics:
    def test_construction_and_order(self):
        s = TruncatedSeries((1, 2, 3))
        assert s.order == 2
        assert s.coefficient(1) == 2
        assert s.coeffs == (1, 2, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruncatedSeries(())

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            TruncatedSeries((1.5, 2))
        with pytest.raises(TypeError):
            TruncatedSeries.one(2) * 0.5

    def test_product_truncates_at_min_order(self):
        one_plus = TruncatedSeries((1, 1, 0))
        one_minus = TruncatedSeries((1, -1, 0))
        assert (one_plus * one_minus).coeffs == (1, 0, -1)
        short = TruncatedSeries((1, -2))
        assert (short * short).coeffs == (1, -4)  # order 1: x^2 term dropped

    def test_scalar_ops_keep_order(self):
        s = TruncatedSeries((1, 2, 3))
        assert (s * Fraction(1, 2)).coeffs == (Fraction(1, 2), 1, Fraction(3, 2))
        assert (s + 5).coeffs == (6, 2, 3)
        assert (5 - s).coeffs == (4, -2, -3)

    def test_pow(self):
        binomial_cube = TruncatedSeries((1, 1, 0, 0))
        assert binomial_cube.pow_int(3).coeffs == (1, 3, 3, 1)
        assert binomial_cube.pow_int(0) == TruncatedSeries.one(3)
        assert (binomial_cube**2).coeffs == (1, 2, 1, 0)
        with pytest.raises(ValueError):
            binomial_cube.pow_int(-1)
        with pytest.raises(ValueError):
            binomial_cube.pow_int(2.0)

    def test_derivative(self):
        s = TruncatedSeries((7, 1, Fraction(1, 2), 5))
        assert s.derivative().coeffs == (1, 1, 15)
        assert TruncatedSeries.constant(3, 1).derivative().coeffs == (0,)
        with pytest.raises(ValueError):
            TruncatedSeries.constant(3, 0).derivative()

    def test_equality_is_structural(self):
        assert TruncatedSeries.one(2) != TruncatedSeries.one(3)
        assert TruncatedSeries.one(2) == TruncatedSeries((1, 0, 0))

    def test_evaluate_horner(self):
        s = TruncatedSeries((1, -1, Fraction(1, 2)))
        assert s.evaluate(Fraction(1, 3)) == 1 - Fraction(1, 3) + Fraction(1, 18)

    def test_hashable_immutable(self):
        s = TruncatedSeries.one(2)
        assert hash(s) == hash(TruncatedSeries((1, 0, 0)))
        with pytest.raises(Exception):
            s.coeffs = (2,)


class TestRingLaws:
    def test_seeded_ring_identities(self):
        rng = random.Random(11)
        for _ in range(60):
            order = rng.randint(0, 8)
            a, b, c = (random_series(rng, order) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a - a == TruncatedSeries.constant(0, order)

    def test_mixed_order_truncation(self):
        rng = random.Random(12)
        for _ in range(30):
            a = random_series(rng, rng.randint(0, 6))
            b = random_series(rng, rng.randint(0, 6))
            prod = a * b
            assert prod.order == min(a.order, b.order)
            full_a = TruncatedSeries(a.coeffs[: prod.order + 1])
            full_b = TruncatedSeries(b.coeffs[: prod.order + 1])
            assert prod == full_a * full_b

    def test_product_derivative_rule(self):
        rng = random.Random(13)
        for _ in range(30):
            order = rng.randint(1, 7)
            a, b = random_series(rng, order), random_series(rng, order)
            lhs = (a * b).derivative()
            low_a, low_b = TruncatedSeries(a.coeffs[:order]), TruncatedSeries(b.coeffs[:order])
            rhs = a.derivative() * low_b + low_a * b.derivative()
            assert lhs == rhs


class TestExp:
    def test_exp_zero(self):
        assert exp_of(TruncatedSeries.constant(0, 4)) == TruncatedSeries.one(4)

    def test_exp_x(self):
        result = exp_of(TruncatedSeries.x(4))
        assert result.coeffs == (1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24))

    def test_nonzero_constant_rejected(self):
        with pytest.raises(ValueError):
            exp_of(TruncatedSeries((1, 1)))

    def test_exp_additivity(self):
        rng = random.Random(14)
        for _ in range(30):
            order = rng.randint(1, 8)
            a = random_series(rng, order)
            b = random_series(rng, order)
            a = TruncatedSeries((Fraction(0),) + a.coeffs[1:])
            b = TruncatedSeries((Fraction(0),) + b.coeffs[1:])
            assert exp_of(a + b) == exp_of(a) * exp_of(b)

    def test_exp_of_log_binomial(self):
        # exp(-2 log(1+t)) must reproduce the binomial series of (1+t)^-2.
        order = 8
        log_series = TruncatedSeries(
            (Fraction(0),) + tuple(Fraction((-1) ** (k + 1), k) for k in range(1, order + 1))
        )
        lhs = exp_of(-2 * log_series)
        rhs = TruncatedSeries(tuple(generalized_binomial(-2, k) for k in range(order + 1)))
        assert lhs == rhs

    def test_exp_bridge_to_complete_bell(self):
        # r! [x^r] exp(sum a_k x^k / k!) == Y_r(a_1..a_r).
        rng = random.Random(15)
        for _ in range(30):
            r = rng.randint(1, 12)
            a = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(r)]
            gen = TruncatedSeries(
                (Fraction(0),) + tuple(a[k - 1] / factorial(k) for k in range(1, r + 1))
            )
            lhs = factorial(r) * exp_of(gen).coefficient(r)
            assert lhs == complete_bell(r, a)


class TestAgainstSchoolbook:
    def test_product(self):
        rng = random.Random(31)
        for order in range(61):
            a = mixed_series(rng, order)
            b = mixed_series(rng, order + rng.randint(0, 3))
            assert (a * b).coeffs == schoolbook_product(a.coeffs, b.coeffs)
            assert (b * a).coeffs == schoolbook_product(a.coeffs, b.coeffs)

    def test_exp(self):
        rng = random.Random(32)
        for order in range(61):
            a = TruncatedSeries((Fraction(0),) + mixed_series(rng, order).coeffs[1:])
            assert exp_of(a).coeffs == schoolbook_exp(a.coeffs)

    def test_pow_equals_repeated_product(self):
        rng = random.Random(33)
        for exponent in range(18):
            for order in (0, 1, 4, 7):
                s = mixed_series(rng, order)
                expected = TruncatedSeries.one(order).coeffs
                for _ in range(exponent):
                    expected = schoolbook_product(expected, s.coeffs)
                assert s.pow_int(exponent).coeffs == expected

    def test_pow_huge_exponent_is_fast(self):
        # [x^2] (1 + x + x^2/2 + ...)^e = C(e, 2) + e/2 = e^2/2.
        s = TruncatedSeries((1, 1, Fraction(1, 2), 0, -3))
        start = time.perf_counter()
        power = s.pow_int(10**6)
        assert time.perf_counter() - start < 5
        assert power.coefficient(1) == 10**6
        assert power.coefficient(2) == Fraction(10**12, 2)


class TestCommonDenominator:
    """Operands whose common denominator grows mid-series, so products and
    exp_of rescale the integers they have kept so far."""

    def test_distinct_prime_denominators(self):
        rng = random.Random(41)
        a, b = prime_series(rng, PRIMES[:61]), prime_series(rng, PRIMES[61:122])
        assert (a * b).coeffs == schoolbook_product(a.coeffs, b.coeffs)
        assert (b * a).coeffs == schoolbook_product(a.coeffs, b.coeffs)
        square = schoolbook_product(a.coeffs, a.coeffs)
        assert a.pow_int(3).coeffs == schoolbook_product(square, a.coeffs)
        a0 = TruncatedSeries((0,) + a.coeffs[1:])
        assert exp_of(a0).coeffs == schoolbook_exp(a0.coeffs)

    def test_square_multiplies_each_pair_once(self):
        # pow_int squares symmetrically (each x_i x_{k-i}, i != k - i, once
        # and doubled); that must equal the general product and the
        # schoolbook one, at orders 0, 1 and 2 as on the prime series.
        rng = random.Random(43)
        a = prime_series(rng, PRIMES[:61])
        small = [TruncatedSeries(a.coeffs[: order + 1]) for order in (0, 1, 2)]
        for s in [a, *small, mixed_series(rng, 9)]:
            expected = schoolbook_product(s.coeffs, s.coeffs)
            assert s.pow_int(2).coeffs == (s * s).coeffs == expected
            assert s.pow_int(4).coeffs == schoolbook_product(expected, expected)

    def test_denominators_grow_then_fall_back(self):
        rise_fall = TruncatedSeries(tuple(map(Fraction, ("1/6", "1/2", "1/3", "1", "5/4"))))
        other = TruncatedSeries(tuple(reversed(rise_fall.coeffs)))
        integers = TruncatedSeries((3, -1, 0, 2, 7))
        for x in (rise_fall, other, integers):
            for y in (rise_fall, other, integers):
                assert (x * y).coeffs == schoolbook_product(x.coeffs, y.coeffs)
        tail = TruncatedSeries((0,) + rise_fall.coeffs + (Fraction(7, 12), Fraction(1, 35)))
        assert exp_of(tail).coeffs == schoolbook_exp(tail.coeffs)
        assert exp_of(-tail).coeffs == schoolbook_exp((-tail).coeffs)

    def test_mostly_zero_operand(self):
        rng = random.Random(42)
        a = prime_series(rng, PRIMES[:31])
        x = TruncatedSeries.x(30)
        assert (x * a).coeffs == (0,) + a.coeffs[:-1]
        assert (a * x).coeffs == schoolbook_product(a.coeffs, x.coeffs)
        sparse = TruncatedSeries((0, 0, Fraction(1, 9)) + (0,) * 20 + (Fraction(-3, 7),) + (0,) * 7)
        assert (sparse * a).coeffs == schoolbook_product(sparse.coeffs, a.coeffs)
        assert exp_of(sparse).coeffs == schoolbook_exp(sparse.coeffs)

    def test_orders_zero_and_one(self):
        third, fifth = TruncatedSeries((Fraction(1, 3),)), TruncatedSeries((Fraction(-2, 5),))
        assert (third * fifth).coeffs == (Fraction(-2, 15),)
        assert (third * TruncatedSeries.x(5)).coeffs == (0,)
        pair = TruncatedSeries((Fraction(1, 3), Fraction(5, 7)))
        assert (pair * pair).coeffs == (Fraction(1, 9), Fraction(10, 21))
        assert pair.pow_int(3).coeffs == (Fraction(1, 27), Fraction(5, 21))
        assert exp_of(TruncatedSeries((0,))).coeffs == (1,)
        assert exp_of(TruncatedSeries((0, Fraction(5, 7)))).coeffs == (1, Fraction(5, 7))

    @pytest.mark.parametrize(
        "n, k0, c, m",
        [
            (3, Fraction(4, 3), Fraction(5, 2), 1),
            (3, Fraction(5, 3), Fraction(3, 2), Fraction(3, 2)),
        ],
    )
    def test_exp_of_potential_gives_the_block_scales(self, n, k0, c, m):
        # [x^r] e^{m u} = h_r, which the scan kernel computes without series.
        p = CalabiParams(n, k0, c)
        u = m * taylor_series(u_coeffs_closed(p, 80))
        result = exp_of(u).coeffs
        assert result == schoolbook_exp(u.coeffs)
        assert result[1:] == h_values(p, m, 80)
