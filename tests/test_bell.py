"""Bell polynomial tests: frozen small values, algorithm equivalence,
homogeneity, and the classical specializations (Stirling set numbers,
Bell numbers) computed by independent recurrences.
"""

import math
import random
from fractions import Fraction

import pytest

from calabi_bell.bell import (
    BellTable,
    complete_bell,
    partial_bell_partition,
    partial_bell_recurrence,
)
from calabi_bell.inequality import min_negative_r, normalized_term
from calabi_bell.rationals import BellConsistencyError


def random_fractions(rng, count, span=9):
    return [Fraction(rng.randint(-span, span), rng.randint(1, span)) for _ in range(count)]


def stirling2(r, j):
    """Stirling set numbers by their own recurrence, independent oracle."""
    if r == j == 0:
        return 1
    if r == 0 or j == 0:
        return 0
    return j * stirling2(r - 1, j) + stirling2(r - 1, j - 1)


def bell_number(r):
    """Bell numbers by the binomial recurrence, independent oracle."""
    numbers = [1]
    for n in range(r):
        numbers.append(sum(numbers[k] * math.comb(n, k) for k in range(n + 1)))
    return numbers[r]


def fraction_triangle(xs, r_max):
    """rows[r][j] = B_{r,j} by the binomial recurrence on plain Fractions."""
    rows = [[Fraction(1)]]
    for r in range(1, r_max + 1):
        row = [Fraction(0)] * (r + 1)
        for j in range(1, r + 1):
            for i in range(1, r - j + 2):
                row[j] += math.comb(r - 1, i - 1) * xs[i - 1] * rows[r - i][j - 1]
        rows.append(row)
    return rows


class TestFrozenValues:
    def test_single_variable(self):
        assert partial_bell_partition(1, 1, [Fraction(5, 7)]) == Fraction(5, 7)
        assert partial_bell_recurrence(1, 1, [Fraction(5, 7)]) == Fraction(5, 7)

    def test_b42_ones(self):
        assert partial_bell_partition(4, 2, [1, 1, 1]) == 7
        assert partial_bell_recurrence(4, 2, [1, 1, 1]) == 7

    def test_b32_and_b43_ones(self):
        assert partial_bell_partition(3, 2, [1, 1]) == 3
        assert partial_bell_recurrence(4, 3, [1, 1]) == 6

    def test_row_four_ones(self):
        assert BellTable([1, 1, 1, 1]).row(4) == (1, 7, 6, 1)

    def test_row_four_mixed(self):
        xs = [Fraction(1), Fraction(1, 2), Fraction(1), Fraction(15, 4)]
        assert BellTable(xs).row(4) == (Fraction(15, 4), Fraction(19, 4), 3, 1)

    def test_complete_examples(self):
        assert complete_bell(1, [Fraction(3, 5)]) == Fraction(3, 5)
        assert complete_bell(4, [1, 1, 1, 1]) == 15


class TestStructure:
    def test_top_entry_is_power(self):
        rng = random.Random(1)
        for _ in range(20):
            x1 = random_fractions(rng, 1)[0]
            r = rng.randint(1, 8)
            assert partial_bell_recurrence(r, r, [x1]) == x1**r

    def test_second_from_top(self):
        # One pair, rest singletons: C(r, 2) x1^{r-2} x2.
        rng = random.Random(2)
        for _ in range(20):
            r = rng.randint(2, 9)
            x1, x2 = random_fractions(rng, 2)
            expected = Fraction(r * (r - 1), 2) * x1 ** (r - 2) * x2
            assert partial_bell_recurrence(r, r - 1, [x1, x2]) == expected

    def test_third_from_top_deep(self):
        # One triple or two pairs, rest singletons: C(r, 3) + 3 C(r, 4) at
        # x = 1. r = 2002 is far past the interpreter's recursion limit.
        for r in (3, 4, 10, 2002):
            expected = math.comb(r, 3) + 3 * math.comb(r, 4)
            assert partial_bell_recurrence(r, r - 2, [1, 1, 1]) == expected

    def test_j_one_is_xr(self):
        rng = random.Random(3)
        xs = random_fractions(rng, 9)
        for r in range(1, 10):
            assert partial_bell_partition(r, 1, xs) == xs[r - 1]

    def test_algorithms_agree(self):
        rng = random.Random(4)
        for _ in range(40):
            r = rng.randint(1, 12)
            j = rng.randint(1, r)
            xs = random_fractions(rng, r - j + 1)
            assert partial_bell_partition(r, j, xs) == partial_bell_recurrence(r, j, xs)

    def test_homogeneity(self):
        # B_{r,j}(t p x_1, t p^2 x_2, ...) = t^j p^r B_{r,j}(x).
        rng = random.Random(5)
        for _ in range(30):
            r = rng.randint(1, 10)
            j = rng.randint(1, r)
            xs = random_fractions(rng, r - j + 1)
            t = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
            p = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
            scaled = [t * p ** (i + 1) * x for i, x in enumerate(xs)]
            assert partial_bell_recurrence(r, j, scaled) == t**j * p**r * partial_bell_recurrence(r, j, xs)

    def test_stirling_specialization(self):
        # All x_l = 1 turns B_{r,j} into the Stirling set number.
        ones = [1] * 12
        table = BellTable(ones)
        for r in range(1, 13):
            for j in range(1, r + 1):
                assert table.value(r, j) == stirling2(r, j)

    def test_bell_number_specialization(self):
        for r in range(1, 13):
            assert complete_bell(r, [1] * r) == bell_number(r)

    def test_complete_is_row_sum(self):
        rng = random.Random(6)
        for _ in range(20):
            r = rng.randint(1, 10)
            xs = random_fractions(rng, r)
            assert complete_bell(r, xs) == sum(BellTable(xs).row(r))

    def test_complete_matches_plain_fraction_triangle(self):
        # complete_bell runs Comtet's recurrence; the oracle sums row r of
        # the plain partial triangle.
        for seed, span in ((8, 9), (9, 40)):
            xs = random_fractions(random.Random(seed), 30, span)
            rows = fraction_triangle(xs, 30)
            for r in range(1, 31):
                assert complete_bell(r, xs[:r]) == sum(rows[r])

    @pytest.mark.parametrize("name", ["1/p_i", "x_l at n = 3"])
    def test_integer_recurrences_on_growing_denominators(self, name):
        # Each recurrence row is one integer sum over a common denominator:
        # at x_i = 1/p_i every term brings a new prime into it, and x_l at
        # n = 3 has numerators that grow like (3l)!. Checked against the
        # plain Fraction triangle and, at small r, the partition sum.
        primes = [p for p in range(2, 200) if all(p % d for d in range(2, p))][:30]
        xs = [Fraction(1, p) for p in primes] if name == "1/p_i" else [
            normalized_term(3, l) for l in range(1, 31)
        ]
        rows = fraction_triangle(xs, 30)
        for r in range(1, 31):
            assert complete_bell(r, xs[:r]) == sum(rows[r]), r
        for r, j in ((30, 1), (30, 2), (30, 15), (30, 29), (30, 30), (21, 7), (17, 16)):
            assert partial_bell_recurrence(r, j, xs[: r - j + 1]) == rows[r][j], (r, j)
        for r in range(1, 13):
            for j in range(1, r + 1):
                expected = partial_bell_partition(r, j, xs)
                assert partial_bell_recurrence(r, j, xs[: r - j + 1]) == expected, (r, j)

    def test_y2_and_y4_patterns(self):
        rng = random.Random(7)
        for _ in range(20):
            a = random_fractions(rng, 4)
            assert complete_bell(2, a[:2]) == a[1] + a[0] ** 2
            expected = (
                a[3]
                + 4 * a[2] * a[0]
                + 3 * a[1] ** 2
                + 6 * a[1] * a[0] ** 2
                + a[0] ** 4
            )
            assert complete_bell(4, a) == expected


class TestTable:
    def test_minimal_table(self):
        table = BellTable([1])
        table.extend(1)
        assert table.value(1, 1) == 1
        assert table.r_max == 1

    def test_extension_preserves_rows(self):
        rng = random.Random(8)
        xs = random_fractions(rng, 16)
        table = BellTable(xs)
        table.extend(8)
        frozen = [table.row(r) for r in range(1, 9)]
        table.extend(16)
        assert [table.row(r) for r in range(1, 9)] == frozen

    @pytest.mark.parametrize("n", range(2, 7))
    def test_rows_match_plain_fraction_triangle(self, n):
        xs = [normalized_term(n, l) for l in range(1, 31)]
        expected = fraction_triangle(xs, 30)
        table = BellTable(xs)
        # Two extends: the second appends to columns the first left open.
        for r_max in (15, 30):
            table.extend(r_max)
            assert table.r_max == r_max
            for r in range(1, r_max + 1):
                assert table.row(r) == tuple(expected[r][1:]), r
                assert [table.value(r, j) for j in range(1, r + 1)] == expected[r][1:], r
        for r, j in ((30, 2), (30, 17), (29, 28), (12, 5)):
            assert partial_bell_recurrence(r, j, xs) == expected[r][j], (r, j)

    def test_callable_source(self):
        table = BellTable(lambda l: Fraction(1, l))
        assert table.value(3, 3) == 1
        assert [table.value(l, 1) for l in (1, 2, 3)] == [1, Fraction(1, 2), Fraction(1, 3)]

    def test_failed_extend_leaves_table_intact(self):
        table = BellTable(lambda l: 0.5 if l == 5 else Fraction(1, l))
        table.extend(4)
        rows = [table.row(r) for r in range(1, 5)]
        with pytest.raises(TypeError):
            table.extend(6)
        assert table.r_max == 4
        assert [table.row(r) for r in range(1, 5)] == rows
        assert table.value(4, 2) == partial_bell_partition(4, 2, [Fraction(1, l) for l in range(1, 4)])

    def test_finite_source_exhaustion(self):
        table = BellTable([1, 1])
        with pytest.raises(ValueError):
            table.extend(3)

    def test_build_validates_against_partition_sums(self):
        rng = random.Random(9)
        xs = random_fractions(rng, 10)
        table = BellTable(xs)
        table.extend(10)
        for r in range(1, 11):
            assert table.row(r) == tuple(partial_bell_partition(r, j, xs) for j in range(1, r + 1))

    def test_build_surfaces_corruption(self, monkeypatch):
        # A triangle built with corrupted sums fails the scan's re-check.
        import calabi_bell.bell as bell_mod

        exact_dot = bell_mod._dot
        monkeypatch.setattr(bell_mod, "_dot", lambda xs, ys: exact_dot(xs, ys) + 1)
        with pytest.raises(BellConsistencyError):
            min_negative_r(2, 3, 10)


class TestValidation:
    @pytest.mark.parametrize("r,j", [(0, 0), (0, 1), (1, 0), (2, 3), (-1, 1), (3, -1)])
    def test_bad_indices(self, r, j):
        for fn in (partial_bell_partition, partial_bell_recurrence):
            with pytest.raises((ValueError, TypeError)):
                fn(r, j, [1, 1, 1, 1])

    def test_short_input(self):
        with pytest.raises(ValueError):
            partial_bell_partition(5, 2, [1, 1, 1])  # needs 4
        with pytest.raises(ValueError):
            complete_bell(4, [1, 1, 1])

    def test_complete_rejects_zero(self):
        with pytest.raises(ValueError):
            complete_bell(0, [])

    def test_exact_length_contract(self):
        # j > 1 must not demand x beyond index r - j + 1.
        assert partial_bell_recurrence(4, 2, [1, 2, 3]) == partial_bell_partition(4, 2, [1, 2, 3])
