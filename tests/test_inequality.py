"""Sign-scan tests: the normalized sequence, the alternating sums, scan
reports with their payloads, and the exact bridge back to the
potential's block constants."""

import math
import random
from fractions import Fraction

import pytest

import calabi_bell.inequality as inequality_mod
import calabi_bell.potential as potential_mod
from calabi_bell.bell import BellTable
from calabi_bell.cli import main
from calabi_bell.inequality import (
    alternating_bell_sum,
    min_negative_r,
    normalized_term,
    scan_grid,
)
from calabi_bell.potential import CalabiParams, h_values
from calabi_bell.rationals import BellConsistencyError, factorial, parse_rational


def spy_on_bell_rows(monkeypatch):
    """The number of triangle rows each ``BellTable.extend`` call builds."""
    built = []
    extend = BellTable.extend

    def spy(table, r_max):
        before = table.r_max
        extend(table, r_max)
        built.append(table.r_max - before)

    monkeypatch.setattr(BellTable, "extend", spy)
    return built


def fraction_rows(n, q, r_max):
    """The exponential-formula recurrence in Fraction arithmetic, the
    reference for the integer kernel: S_k = sum_{i<=k}
    C(k-1, i-1) z_i S_{k-i}, z_i = -q (-1)^i x_i."""
    zs = []
    s = [Fraction(1)]
    for k in range(1, r_max + 1):
        zs.append((q if k % 2 else -q) * normalized_term(n, k))
        s.append(sum(math.comb(k - 1, i - 1) * zs[i - 1] * s[k - i] for i in range(1, k + 1)))
    return s[1:]


class TestNormalizedSequence:
    def test_first_term_is_one_for_every_n(self):
        for n in range(2, 9):
            assert normalized_term(n, 1) == 1

    def test_frozen_n2(self):
        assert [normalized_term(2, l) for l in range(1, 5)] == [1, Fraction(1, 2), 1, Fraction(15, 4)]

    def test_frozen_n3(self):
        assert [normalized_term(3, l) for l in range(1, 4)] == [1, 1, Fraction(10, 3)]

    def test_all_terms_positive(self):
        for n in (2, 3, 5, 8):
            assert all(normalized_term(n, l) > 0 for l in range(1, 31))

    def test_recovers_coefficients_up_to_scale(self):
        # a_l = (-1/k0) (-c k0)^l x_l ties the normalized sequence to the
        # actual derivatives.
        from calabi_bell.potential import u_coeffs_closed

        p = CalabiParams(3, Fraction(5, 2), Fraction(2, 3))
        values = u_coeffs_closed(p, 10).values
        assert len(values) == 10
        for l, a_l in enumerate(values, 1):
            assert a_l == Fraction(-1) / p.k0 * (-p.c * p.k0) ** l * normalized_term(p.n, l)

    def test_validation(self):
        with pytest.raises(ValueError):
            normalized_term(1, 1)
        with pytest.raises(ValueError):
            normalized_term(2, 0)


class TestAlternatingSum:
    def test_frozen_n2_q_half(self):
        q = Fraction(1, 2)
        values = [alternating_bell_sum(2, q, r) for r in (1, 2, 3, 4)]
        assert values == [Fraction(1, 2), 0, Fraction(1, 4), -1]

    def test_shared_table_matches_fresh(self):
        table = BellTable(lambda l: normalized_term(3, l))
        for r in range(1, 15):
            assert alternating_bell_sum(3, 2, r, table) == alternating_bell_sum(3, 2, r)

    def test_scaling_bridge_to_h(self):
        # sum_j m^j B_{r,j}(a) == (c k0)^r S(n, m/k0, r); equivalently
        # h_r * r! == (c k0)^r S.
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(2, 5)
            k0 = Fraction(rng.randint(1, 6))
            c = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            m = Fraction(rng.randint(1, 6), rng.randint(1, 3))
            r = rng.randint(1, 16)
            p = CalabiParams(n, k0, c)
            h_val = h_values(p, m, r)[-1]
            s_val = alternating_bell_sum(n, m / k0, r)
            assert h_val * factorial(r) == (c * k0) ** r * s_val

    def test_sign_matches_h(self):
        rng = random.Random(32)
        for _ in range(20):
            n = rng.randint(2, 4)
            k0 = Fraction(rng.randint(1, 5))
            c = Fraction(rng.randint(1, 4), rng.randint(1, 3))
            m = Fraction(rng.randint(1, 5))
            r = rng.randint(1, 12)
            h_val = h_values(CalabiParams(n, k0, c), m, r)[-1]
            s_val = alternating_bell_sum(n, m / k0, r)
            assert (h_val > 0) == (s_val > 0)
            assert (h_val == 0) == (s_val == 0)

    def test_matches_the_fraction_sum(self):
        # The one-denominator sum against the defining sum taken term by term
        # in Fraction arithmetic: n <= 8, q = a/b with b <= 7, r <= 40.
        rng = random.Random(38)
        cases = [(2, Fraction(3), 40), (5, Fraction(2, 7), 39), (8, Fraction(1, 6), 1)]
        for _ in range(10):
            b = rng.randint(1, 7)
            a = rng.choice([a for a in range(1, 50 * b) if math.gcd(a, b) == 1])
            cases.append((rng.randint(2, 8), Fraction(a, b), rng.randint(1, 40)))
        assert {q.denominator == 1 for _, q, _ in cases} == {True, False}
        assert {r % 2 for _, _, r in cases} == {0, 1}
        for n, q, r in cases:
            row = BellTable(lambda l: normalized_term(n, l)).row(r)
            expected = sum(((-q) ** j * entry for j, entry in enumerate(row, 1)), Fraction(0))
            assert alternating_bell_sum(n, q, r) == (-1) ** r * expected, (n, q, r)

    def test_validation(self):
        with pytest.raises(ValueError):
            alternating_bell_sum(1, 1, 1)
        with pytest.raises(ValueError):
            alternating_bell_sum(2, Fraction(-1), 1)
        with pytest.raises(TypeError):
            alternating_bell_sum(2, 0.5, 1)
        with pytest.raises(ValueError):
            alternating_bell_sum(2, 1, 0)


class TestScan:
    def test_min_negative_r_frozen(self):
        report = min_negative_r(2, Fraction(1, 2), 10)
        assert report.min_negative_r == 4
        assert report.rows == (
            (1, Fraction(1, 2)),
            (2, Fraction(0)),
            (3, Fraction(1, 4)),
            (4, Fraction(-1)),
        )

    def test_stops_at_witness(self):
        report = min_negative_r(3, Fraction(1, 2), 200)
        assert report.min_negative_r == 2
        assert len(report.rows) == 2

    def test_rows_self_consistent(self):
        report = min_negative_r(2, 3, 50)
        negatives = [r for r, s in report.rows if s < 0]
        assert negatives == [report.min_negative_r]
        assert [r for r, _ in report.rows] == list(range(1, report.min_negative_r + 1))

    def test_unfound_witness_is_none(self):
        report = min_negative_r(2, Fraction(1, 2), 3)
        assert report.min_negative_r is None
        assert len(report.rows) == 3

    def test_json_round_trip(self):
        # Every rational of the payload is a "p/q" string read back exactly.
        for report in (min_negative_r(2, Fraction(1, 2), 10), min_negative_r(2, 1, 2)):
            payload = report.to_dict()
            assert parse_rational(payload["q"]) == report.q
            assert [parse_rational(row["S"]) for row in payload["rows"]] == [
                s for _, s in report.rows
            ]

    def test_json_shape(self):
        payload = min_negative_r(2, Fraction(1, 2), 10).to_dict()
        assert payload["n"] == 2
        assert payload["q"] == "1/2"
        assert payload["r_max"] == 10
        assert payload["rows"][0] == {"r": 1, "S": "1/2"}
        assert payload["min_negative_r"] == 4

    def test_json_omits_absent_witness(self):
        payload = min_negative_r(2, Fraction(1, 2), 3).to_dict()
        assert "min_negative_r" not in payload

    def test_rows_match_bell_triangle(self):
        # The exponential-formula rows against the defining sum, one Bell
        # table per n shared by every q; several scans run past the r <= 40
        # runtime re-check.
        rng = random.Random(34)
        tables = {}
        longest = []
        for _ in range(20):
            n = rng.randint(2, 6)
            q = Fraction(rng.randint(1, 30 * n), rng.randint(1, 2))
            table = tables.setdefault(n, BellTable(lambda l, n=n: normalized_term(n, l)))
            report = min_negative_r(n, q, 70)
            assert report.rows == tuple(
                (r, alternating_bell_sum(n, q, r, table)) for r in range(1, len(report.rows) + 1)
            )
            longest.append(len(report.rows))
        assert sum(rows > 40 for rows in longest) >= 3

    def test_integer_kernel_matches_fraction_recurrence(self):
        # Every row r <= 150, q from below 1 to 300, n = 2..8, reduced
        # denominators 1..7.
        rng = random.Random(35)
        cases = [(2, Fraction(1, 7)), (8, Fraction(300)), (3, Fraction(299, 7))]
        for b in range(1, 8):
            a = rng.choice([a for a in range(1, 300 * b + 1) if math.gcd(a, b) == 1])
            cases.append((b + 1, Fraction(a, b)))
        assert {q.denominator for _, q in cases} == set(range(1, 8))
        assert min(q for _, q in cases) < 1 and max(q for _, q in cases) == 300
        for n, q in cases:
            assert list(inequality_mod._s_rows(n, q, 150)) == fraction_rows(n, q, 150), (n, q)

    def test_cyclic_kernel_matches_convolution_and_fractions(self):
        # Every row r <= 200 of the O(n r) kernel against the O(r^2) one and
        # the Fraction recurrence: n = 2..8, reduced denominators 1..7, q
        # from below 1 to 300.
        rng = random.Random(36)
        cases = [(2, Fraction(1, 7)), (8, Fraction(300)), (5, Fraction(2, 3))]
        for b in range(1, 8):
            a = rng.choice([a for a in range(1, 300 * b + 1) if math.gcd(a, b) == 1])
            cases.append((rng.randint(2, 8), Fraction(a, b)))
        assert len(cases) >= 10 and {n for n, _ in cases} <= set(range(2, 9))
        assert {q.denominator for _, q in cases} == set(range(1, 8))
        assert min(q for _, q in cases) < 1 and max(q for _, q in cases) == 300
        for n, q in cases:
            a, b = q.numerator, q.denominator
            cyclic = list(inequality_mod._cyclic_rows(n, a, b, 200))
            assert cyclic == list(inequality_mod._convolution_rows(n, a, b, 200)), (n, q)
            # Each kernel yields nu(m) with its row, for the scale to reuse.
            assert [nu for nu, _ in cyclic] == [inequality_mod._smooth_part(n, m) for m in range(1, 201)]
            rows = [Fraction(y, b**m * math.gcd(n**m, factorial(m))) for m, (_, y) in enumerate(cyclic, 1)]
            assert rows == fraction_rows(n, q, 200), (n, q)

    def test_row_denominators_divide_the_kernel_scale(self):
        # The kernels' rows B_0[r] = b^r gcd(n^r, r!) S_r are integers only
        # if the reduced denominator of S_r divides that scale; checked here
        # on the Fraction recurrence alone, at every r <= 150.
        rng = random.Random(37)
        for n in (2, 3, 4, 8, 12, 30):
            b = rng.randint(1, 7)
            q = Fraction(rng.choice([a for a in range(1, 40 * b) if math.gcd(a, b) == 1]), b)
            for r, s in enumerate(fraction_rows(n, q, 150), 1):
                scale = q.denominator**r * math.gcd(n**r, factorial(r))
                assert scale % s.denominator == 0, (n, q, r)

    @pytest.mark.parametrize(
        "n,i,part", [(6, 12, 12), (4, 8, 8), (10**9 + 1, 6, 1), (2, 7, 1), (30, 90, 90), (3, 54, 27)]
    )
    def test_smooth_part(self, n, i, part):
        # nu(i), the largest divisor of i whose primes all divide n.
        assert inequality_mod._smooth_part(n, i) == part

    @pytest.mark.parametrize("n,q", [(3, Fraction(5, 2)), (12, Fraction(7))])
    def test_inexact_kernel_division_is_caught(self, monkeypatch, capsys, n, q):
        # Without the nu(m) factors the rows are not integers; each kernel's
        # exact division (n = 3 cyclic, n = 12 convolution at r_max = 40)
        # then leaves a remainder instead of flooring it away.
        smooth_part = inequality_mod._smooth_part
        monkeypatch.setattr(inequality_mod, "_smooth_part", lambda m, i: 1 if m == n else smooth_part(m, i))
        with pytest.raises(BellConsistencyError, match="does not divide row"):
            min_negative_r(n, q, 40)
        assert main(["scan", "--n", str(n), "--q", str(q), "--rmax", "40"]) == 2
        assert "internal consistency failure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n,r_max,kernel",
        [
            (2, 200, "_cyclic_rows"),
            (9, 40, "_cyclic_rows"),
            (10, 40, "_convolution_rows"),
            (1129, 1000, "_cyclic_rows"),
            (1130, 1000, "_convolution_rows"),
            (10**9 + 1, 1000, "_convolution_rows"),
        ],
    )
    def test_cost_rule_picks_the_kernel(self, monkeypatch, n, r_max, kernel):
        # The cyclic kernel keeps n integers, so it runs only while
        # (28 n)^2 <= r_max^3; n = 10^9 + 1 (blocks at d = 10^9) stays on
        # the convolution.
        other = {"_cyclic_rows", "_convolution_rows"} - {kernel}

        def refuse(*args):
            raise AssertionError("the other kernel ran")

        monkeypatch.setattr(inequality_mod, other.pop(), refuse)
        rows = inequality_mod._s_rows(n, Fraction(1, 2), r_max)
        assert [next(rows), next(rows)] == [Fraction(1, 2), Fraction(2 - n, 4)]

    def test_wrong_kernel_row_is_caught(self, monkeypatch, capsys):
        exact_rows = inequality_mod._s_rows
        monkeypatch.setattr(inequality_mod, "_s_rows", lambda *args: (s + 1 for s in exact_rows(*args)))
        with pytest.raises(BellConsistencyError):
            min_negative_r(2, Fraction(1, 2), 10)
        assert main(["scan", "--n", "2", "--q", "3", "--rmax", "40"]) == 2
        assert "internal consistency failure" in capsys.readouterr().err

    def test_deep_scan_skips_bell_triangle(self, monkeypatch):
        def no_triangle(*args, **kwargs):
            raise AssertionError("the Bell triangle ran past the re-check bound")

        monkeypatch.setattr(inequality_mod, "alternating_bell_sum", no_triangle)
        report = min_negative_r(2, 30, 200)
        assert report.min_negative_r == 50 > inequality_mod.RECHECK_MAX_R

    def test_grid_preserves_order_and_matches_single(self):
        qs = [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
        reports = scan_grid(2, qs, 50)
        assert [rep.q for rep in reports] == qs
        for q, rep in zip(qs, reports):
            assert rep == min_negative_r(2, q, 50)

    def test_grid_shares_one_bell_triangle(self, monkeypatch):
        # The re-checks of a grid build triangle rows up to the largest
        # last r, not one triangle per q.
        built = spy_on_bell_rows(monkeypatch)
        reports = scan_grid(2, [Fraction(3), Fraction(1, 2), Fraction(5), Fraction(5, 2)], 50)
        last_rs = [len(rep.rows) for rep in reports]
        assert last_rs == [8, 4, 10, 6]
        assert sum(built) == max(last_rs)

    def test_h_r_paths_read_the_kernel(self, monkeypatch, capsys):
        # hr and blocks take S from the scan's kernel, never from the
        # coefficient routes, and re-check only the last row they read:
        # blocks its witness, hr its r_max up to RECHECK_MAX_R.
        def no_route(*args, **kwargs):
            raise AssertionError("a coefficient route ran")

        for name in ("u_coeffs_closed", "u_coeffs_ode"):
            monkeypatch.setattr(potential_mod, name, no_route)
        built = spy_on_bell_rows(monkeypatch)
        hr = ["hr", "--n", "3", "--k0", "7/3", "--c", "5/2", "--m", "3/2", "--rmax"]
        limit = inequality_mod.RECHECK_MAX_R
        for argv, rows in (
            (["blocks", "--d", "1", "--lambda", "1", "--c", "1", "--rmax", "30"], 2),
            (hr + [str(limit)], limit),
            (hr + [str(limit + 1)], 0),
        ):
            built.clear()
            assert main(argv) == 0
            assert sum(built) == rows, argv
        capsys.readouterr()

    def test_grid_wrong_kernel_for_one_q_is_caught(self, monkeypatch, capsys):
        exact_rows = inequality_mod._s_rows

        def wrong_for_three(n, q, r_max):
            rows = exact_rows(n, q, r_max)
            return (s + 1 for s in rows) if q == 3 else rows

        monkeypatch.setattr(inequality_mod, "_s_rows", wrong_for_three)
        assert scan_grid(2, [Fraction(1, 2), Fraction(2)], 50)
        with pytest.raises(BellConsistencyError):
            scan_grid(2, [Fraction(1, 2), Fraction(3), Fraction(2)], 50)
        assert main(["scan", "--n", "2", "--grid", "1/2,3,2", "--rmax", "50"]) == 2
        assert "internal consistency failure" in capsys.readouterr().err

    def test_grid_empty(self):
        assert scan_grid(2, [], 10) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            min_negative_r(2, 1, 0)
        with pytest.raises(ValueError):
            min_negative_r(2, Fraction(-1, 2), 10)
        # n and r_max are checked even when there is no q to scan.
        with pytest.raises(ValueError, match="n must be"):
            scan_grid(1, [])
        with pytest.raises(ValueError, match="r_max must be"):
            scan_grid(2, [], 0)
