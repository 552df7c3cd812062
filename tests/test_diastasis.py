"""Diastasis block tests: monomial layout, coefficient matrices for
integer and fractional powers, the exact PSD check (diagonal and dense),
and the block scan on the projective line."""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from calabi_bell.diastasis import (
    FubiniStudyBase,
    eh_block_scan,
    fs_coeff_matrix,
    fs_power_matrix,
    monomial_indices,
    psd_check,
)
from calabi_bell.potential import CalabiParams, h_values


class TestBase:
    def test_k0_values(self):
        assert FubiniStudyBase(1, 1).k0 == 4
        assert FubiniStudyBase(1, 2).k0 == 2
        assert FubiniStudyBase(1, 3).k0 == Fraction(4, 3)
        assert FubiniStudyBase(2, 1).k0 == 6

    def test_integrality_flag(self):
        assert FubiniStudyBase(1, 1).half_k0_integral
        assert FubiniStudyBase(1, 2).half_k0_integral
        assert not FubiniStudyBase(1, 3).half_k0_integral

    def test_exponent_is_always_a_positive_integer(self):
        for d in (1, 2, 3):
            for multiple in (1, 2, 3, 4):
                base = FubiniStudyBase(d, multiple)
                for r in range(6):
                    for m in (1, 2, 3):
                        value = base.exponent_for(r, m)
                        assert value.denominator == 1 and value >= 1
                        assert value == r * (d + 1) + multiple * m

    def test_integer_forms_match_the_fraction_definitions(self):
        # N = lambda (r k0/2 + m) and "k0/2 is a positive integer", written
        # with k0 = 2 (d + 1) / lambda, over bases that pass and fail.
        failing = 0
        for d in range(1, 9):
            for multiple in range(1, 7):
                base = FubiniStudyBase(d, multiple)
                half = base.k0 / 2
                assert base.half_k0_integral == (half.denominator == 1)
                failing += not base.half_k0_integral
                for r in range(31):
                    for m in range(1, 4):
                        value = base.exponent_for(r, m)
                        assert type(value) is Fraction
                        assert value == multiple * (Fraction(r) * base.k0 / 2 + m)
        assert failing == 29

    def test_block_matrices_match_the_fraction_exponent(self):
        for d, multiple, r, m in itertools.product((1, 2, 3), (1, 2, 3, 4), range(6), (1, 2)):
            base = FubiniStudyBase(d, multiple)
            exponent = multiple * (Fraction(r) * base.k0 / 2 + m)
            block = fs_coeff_matrix(base, r, m, 4)
            assert block == fs_power_matrix(d, exponent, 4)
            assert psd_check(block) == "PSD"

    def test_validation(self):
        with pytest.raises(ValueError):
            FubiniStudyBase(0, 1)
        with pytest.raises(ValueError):
            FubiniStudyBase(1, 0)


class TestMonomialLayout:
    def test_d1(self):
        assert monomial_indices(1, 3) == ((1,), (2,), (3,))

    def test_d2_lexicographic(self):
        assert monomial_indices(2, 2) == ((0, 1), (0, 2), (1, 0), (1, 1), (2, 0))

    def test_count(self):
        # |{alpha : 1 <= |alpha| <= cutoff}| = C(cutoff + d, d) - 1
        from math import comb

        for d in (1, 2, 3):
            for cutoff in (1, 2, 4, 6):
                assert len(monomial_indices(d, cutoff)) == comb(cutoff + d, d) - 1

    def test_matches_product_and_filter(self):
        for d in range(1, 6):
            for cutoff in range(1, 7):
                expected = tuple(
                    sorted(
                        alpha
                        for alpha in itertools.product(range(cutoff + 1), repeat=d)
                        if 1 <= sum(alpha) <= cutoff
                    )
                )
                assert monomial_indices(d, cutoff) == expected


class TestCoeffMatrix:
    def test_power_one(self):
        assert fs_power_matrix(1, 1, 3).entries == (1, 0, 0)

    def test_power_three(self):
        matrix = fs_power_matrix(1, 3, 3)
        assert matrix.entries == (3, 3, 1)
        assert matrix.indices == ((1,), (2,), (3,))

    def test_power_half_goes_negative(self):
        matrix = fs_power_matrix(1, Fraction(1, 2), 2)
        assert matrix.entries == (Fraction(1, 2), Fraction(-1, 8))

    def test_multinomial_weights_d2(self):
        matrix = fs_power_matrix(2, 2, 2)
        # (1 + w1 + w2)^2: degree-1 entries 2, degree-2 entries 1, 2, 1.
        assert dict(zip(matrix.indices, matrix.entries)) == {
            (0, 1): 2, (1, 0): 2, (1, 1): 2, (2, 0): 1, (0, 2): 1,
        }

    def test_entry_at_every_index(self):
        # entries[i] is C(N, |alpha|) * multinomial(|alpha|; alpha) at alpha = indices[i].
        from calabi_bell.rationals import generalized_binomial

        matrix = fs_power_matrix(3, Fraction(5, 2), 5)
        assert matrix.indices == monomial_indices(3, 5)
        assert len(matrix.entries) == len(matrix.indices)
        for alpha, entry in zip(matrix.indices, matrix.entries):
            multinomial = math.factorial(sum(alpha)) // math.prod(map(math.factorial, alpha))
            assert entry == generalized_binomial(Fraction(5, 2), sum(alpha)) * multinomial

    def test_matrix_reproduces_power_expansion(self):
        # Sum of entries at |alpha| = k must be the coefficient of s^k in
        # (1 + s)^N after substituting w_i -> s (all variables equal).
        from calabi_bell.rationals import generalized_binomial

        rng = random.Random(41)
        for _ in range(20):
            d = rng.randint(1, 3)
            cutoff = rng.randint(1, 5)
            exponent = Fraction(rng.randint(1, 9), rng.randint(1, 3))
            matrix = fs_power_matrix(d, exponent, cutoff)
            for k in range(1, cutoff + 1):
                total = sum(
                    e for e, alpha in zip(matrix.entries, matrix.indices) if sum(alpha) == k
                )
                assert total == generalized_binomial(exponent, k) * d**k

    def test_fs_coeff_matrix_wraps_exponent(self):
        base = FubiniStudyBase(1, 2)
        matrix = fs_coeff_matrix(base, 3, 1, 4)
        assert matrix.exponent == 8
        assert matrix == fs_power_matrix(1, 8, 4)

    def test_float_exponent_rejected(self):
        with pytest.raises(TypeError):
            fs_power_matrix(1, 0.5, 2)


def _det(matrix):
    """Exact determinant by Gaussian elimination on the first nonzero pivot."""
    m = [list(row) for row in matrix]
    det = Fraction(1)
    for k in range(len(m)):
        p = next((i for i in range(k, len(m)) if m[i][k] != 0), None)
        if p is None:
            return Fraction(0)
        if p != k:
            m[k], m[p], det = m[p], m[k], -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            for j in range(k, len(m)):
                m[i][j] -= f * m[k][j]
    return det


def _sylvester_psd(matrix):
    """Sylvester's criterion: a symmetric matrix is PSD iff every principal
    minor, not only the leading ones, is >= 0."""
    size = len(matrix)
    subsets = (s for k in range(1, size + 1) for s in itertools.combinations(range(size), k))
    return all(_det([[matrix[i][j] for j in s] for i in s]) >= 0 for s in subsets)


def _oracle_matrices(count, seed):
    """(kind, matrix) pairs cycling through three kinds: 0, a rank-deficient
    Gram matrix (PSD); 1, a Gram matrix with one positive diagonal entry
    lowered (often indefinite); 2, a Gram matrix with one row and column
    zeroed and one nonzero entry put back off the diagonal (never PSD; at
    low rank it reaches the elimination's zero-pivot rule)."""
    rng = random.Random(seed)
    for index in range(count):
        kind = index % 3
        size = rng.randint(2 if kind == 2 else 1, 6)
        rank = rng.randint(1, size) if kind == 1 else rng.randint(0, size - 1)
        b = [[_small_fraction(rng) for _ in range(rank)] for _ in range(size)]
        gram = [[sum(map(operator.mul, u, v), Fraction(0)) for v in b] for u in b]
        if kind == 1:
            positive = [i for i in range(size) if gram[i][i] > 0]
            if positive:
                t = rng.choice(positive)
                gram[t][t] *= Fraction(rng.randint(1, 9), 10)
        elif kind == 2:
            t, u = rng.sample(range(size), 2)
            for i in range(size):
                gram[t][i] = gram[i][t] = Fraction(0)
            gram[t][u] = gram[u][t] = _small_fraction(rng) or Fraction(1)
        yield kind, gram


def _small_fraction(rng):
    return Fraction(rng.randint(-5, 5), rng.randint(1, 4))


class TestPsdCheck:
    def test_diagonal_matrices(self):
        assert psd_check(fs_power_matrix(1, 3, 3)) == "PSD"
        assert psd_check(fs_power_matrix(1, Fraction(1, 2), 2)) == "not-PSD"

    def test_integer_powers_all_psd(self):
        for exponent in range(1, 7):
            for d in (1, 2):
                assert psd_check(fs_power_matrix(d, exponent, 8)) == "PSD"

    def test_dense_examples(self):
        assert psd_check([[1, 1], [1, 1]]) == "PSD"  # rank one
        assert psd_check([[1, 2], [2, 1]]) == "not-PSD"  # eigenvalue -1
        assert psd_check([[2, -1], [-1, 2]]) == "PSD"
        assert psd_check([[0, 1], [1, 0]]) == "not-PSD"
        assert psd_check([[0, 0], [0, 0]]) == "PSD"
        assert psd_check([[Fraction(1, 3)]]) == "PSD"
        assert psd_check([[-1]]) == "not-PSD"

    def test_dense_gram_matrices_are_psd(self):
        rng = random.Random(42)
        for _ in range(25):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            a = [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cols)]
                for _ in range(rows)
            ]
            gram = [
                [sum(a[i][k] * a[j][k] for k in range(cols)) for j in range(rows)]
                for i in range(rows)
            ]
            assert psd_check(gram) == "PSD"

    def test_dense_gram_minus_shift_is_not(self):
        rng = random.Random(43)
        for _ in range(25):
            size = rng.randint(1, 5)
            a = [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(size)]
                for _ in range(size)
            ]
            gram = [
                [sum(a[i][k] * a[j][k] for k in range(size)) for j in range(size)]
                for i in range(size)
            ]
            bound = max(sum(abs(v) for v in row) for row in gram)  # >= largest eigenvalue
            shifted = [
                [gram[i][j] - (bound + 1) * (i == j) for j in range(size)]
                for i in range(size)
            ]
            assert psd_check(shifted) == "not-PSD"

    def test_dense_verdicts_match_sylvester(self):
        # 600 seeded symmetric matrices of size 1-6, a third of each kind.
        # Sylvester's criterion reads the determinant of every principal
        # submatrix, so it shares no pivot rule with the elimination.
        verdicts = {kind: [] for kind in range(3)}
        for kind, matrix in _oracle_matrices(600, seed=44):
            expected = "PSD" if _sylvester_psd(matrix) else "not-PSD"
            assert psd_check(matrix) == expected, matrix
            verdicts[kind].append(expected)
        assert set(verdicts[0]) == {"PSD"}
        assert set(verdicts[1]) == {"PSD", "not-PSD"}
        assert set(verdicts[2]) == {"not-PSD"}

    def test_dense_validation(self):
        with pytest.raises(ValueError):
            psd_check([[1, 2]])
        with pytest.raises(ValueError):
            psd_check([[1, 2], [3, 4]])
        with pytest.raises(TypeError):
            psd_check([[1.0]])


class TestBlockScan:
    def test_multiple_one_fails_at_two(self):
        report = eh_block_scan(FubiniStudyBase(1, 1), 1, 8)
        assert not report.integrality_failure
        assert report.first_negative_r == 2
        assert [b.r for b in report.blocks] == [0, 1, 2]
        assert report.blocks[0].scale == 1
        assert report.blocks[2].scale == Fraction(-1, 2)
        assert report.blocks[2].verdict == "not-PSD"
        assert all(b.verdict == "PSD" for b in report.blocks[:2])

    def test_multiple_two_fails_at_four_with_zero_block(self):
        report = eh_block_scan(FubiniStudyBase(1, 2), 1, 8)
        assert report.first_negative_r == 4
        scales = [b.scale for b in report.blocks]
        assert scales == [1, 1, 0, Fraction(1, 3), Fraction(-2, 3)]
        assert report.blocks[2].verdict == "PSD"  # zero matrix is PSD
        assert report.blocks[4].verdict == "not-PSD"

    def test_multiple_three_integrality_failure(self):
        report = eh_block_scan(FubiniStudyBase(1, 3), 1, 8)
        assert report.integrality_failure
        assert report.blocks == ()
        assert report.first_negative_r is None
        assert "2/3" in report.failure_reason

    def test_scales_match_potential_constants(self):
        base = FubiniStudyBase(1, 2)
        report = eh_block_scan(base, Fraction(1, 2), 10)
        params = CalabiParams(2, base.k0, Fraction(1, 2))
        expected = dict(enumerate(h_values(params, 1, 10), 1))
        for block in report.blocks:
            if block.r == 0:
                assert block.scale == 1
            else:
                assert block.scale == expected[block.r]

    @staticmethod
    def assert_blocks_match_matrices(base, report):
        """The scan builds no matrix; each block's exponent and verdict must
        agree with the base matrix that ``fs_coeff_matrix`` builds."""
        for block in report.blocks:
            matrix = fs_coeff_matrix(base, block.r, 1, report.cutoff)
            assert matrix.exponent == block.exponent
            assert all(e >= 0 for e in matrix.entries)
            scaled = [block.scale * e for e in matrix.entries]
            dense = [[v if i == j else 0 for j in range(len(scaled))] for i, v in enumerate(scaled)]
            assert block.verdict == psd_check(dense)

    def test_block_factorization(self):
        for base, c, cutoff in [
            (FubiniStudyBase(1, 1), 1, 4),
            (FubiniStudyBase(1, 2), 1, 3),
            (FubiniStudyBase(2, 1), Fraction(1, 2), 2),
            (FubiniStudyBase(3, 2), Fraction(3, 2), 2),
        ]:
            report = eh_block_scan(base, c, 8, cutoff)
            assert report.first_negative_r is not None
            self.assert_blocks_match_matrices(base, report)

    def test_exponents_step_by_base_degree(self):
        base = FubiniStudyBase(2, 1)
        report = eh_block_scan(base, 1, 3)
        assert [b.exponent for b in report.blocks[:3]] == [1, 4, 7]
        self.assert_blocks_match_matrices(base, report)

    def test_json_shape(self):
        payload = eh_block_scan(FubiniStudyBase(1, 2), 1, 8).to_dict()
        assert payload["d"] == 1
        assert payload["lambda"] == 2
        assert payload["k0"] == "2"
        assert payload["integrality_failure"] is False
        assert payload["first_negative_r"] == 4
        assert payload["blocks"][4] == {
            "r": 4,
            "exponent": "10",
            "scale": "-2/3",
            "verdict": "not-PSD",
        }

    def test_json_failure_shape(self):
        payload = eh_block_scan(FubiniStudyBase(1, 3), 1, 8).to_dict()
        assert payload["integrality_failure"] is True
        assert "failure_reason" in payload
        assert "blocks" not in payload

    def test_no_witness_within_cap(self):
        report = eh_block_scan(FubiniStudyBase(1, 2), 1, 2)
        assert report.first_negative_r is None
        assert len(report.blocks) == 3

    def test_r_max_zero(self):
        report = eh_block_scan(FubiniStudyBase(1, 1), 1, 0)
        assert [b.r for b in report.blocks] == [0]
        assert report.first_negative_r is None

    def test_validation(self):
        with pytest.raises(ValueError):
            eh_block_scan(FubiniStudyBase(1, 1), 0, 4)
        with pytest.raises(TypeError):
            eh_block_scan(FubiniStudyBase(1, 1), 1.0, 4)
        with pytest.raises(ValueError):
            eh_block_scan(FubiniStudyBase(1, 1), 1, -1)
        with pytest.raises(ValueError):
            eh_block_scan(FubiniStudyBase(1, 1), 1, 4, cutoff=0)
