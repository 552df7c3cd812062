"""Potential tests: exact coefficients by both routes, the block-scale
constants, and the numeric closed-form evaluator with its guards."""

import math
import random
from fractions import Fraction

import pytest

import calabi_bell.potential as potential_mod
from calabi_bell.bell import BellTable
from calabi_bell.potential import (
    BranchResidueError,
    CalabiParams,
    ClosedFormEvaluator,
    CoefficientMethodMismatch,
    CoefficientSequence,
    h_values,
    u_coeffs,
    u_coeffs_closed,
    u_coeffs_ode,
)
from calabi_bell.rationals import InputError, generalized_binomial
from calabi_bell.series import condition_series_residual, taylor_series

GRID = [
    CalabiParams(n, Fraction(k0), Fraction(c))
    for n in (2, 3, 4, 5)
    for k0 in (2, 4, 6)
    for c in (Fraction(1), Fraction(1, 3))
]

CRITERION_PARAMS = [
    CalabiParams(2, 2, 1),
    CalabiParams(3, 2, 1),
    CalabiParams(4, 4, Fraction(1, 2)),
]


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CalabiParams(1, 2, 1)
        with pytest.raises(ValueError):
            CalabiParams(2, 0, 1)
        with pytest.raises(ValueError):
            CalabiParams(2, 2, Fraction(-1))
        with pytest.raises(TypeError):
            CalabiParams(2, 2.0, 1)

    def test_exact_coercion(self):
        p = CalabiParams(2, "1/2", 3)
        assert p.k0 == Fraction(1, 2) and isinstance(p.k0, Fraction)

    def test_radicand_slope(self):
        assert CalabiParams(2, 2, 1).radicand_slope == 4
        assert CalabiParams(4, 4, Fraction(1, 2)).radicand_slope == 8


def _fraction_forward_substitution(p, order):
    """Reference: u' = sum v_r x^r matched term by term in
    (1 + k0 x u')^{n-1} (u' + x u'') = c, in exact rationals."""
    top = order - 1
    v = [p.c] + [Fraction(0)] * top
    w = [Fraction(0)] * (top + 1)
    power = [Fraction(1)] + [Fraction(0)] * top  # (1 + w)^{n-1}
    for r in range(1, top + 1):
        w[r] = p.k0 * v[r - 1]
        power[r] = sum(((p.n - 1) * i - (r - i)) * w[i] * power[r - i] for i in range(1, r + 1)) / r
        v[r] = -sum(power[s] * (r - s + 1) * v[r - s] for s in range(1, r + 1)) / (r + 1)
    return tuple(math.factorial(j) * v[j] for j in range(order))


def _exponential_recurrence(p, order):
    """Reference: the all-integer recurrence in the exponential
    coefficients d_r = W^(r+1)(0) of W = V - 1, from W'' (1 + W) =
    -(n-1) W'^2 by Leibniz's rule (d_0 = 1):

        d_{r+1} = -sum_{k=0}^{r} ((n-1) C(r,k) + C(r,k-1)) d_k d_{r-k},

    folded over k <-> r - k, with a_j = c^j k0^{j-1} d_{j-1} / j."""
    d, row = [1], [1]  # C(r, 0..r)
    for r in range(order - 1):
        total = 0
        for k in range(r // 2 + 1):
            below = row[k - 1] if k else 0
            if 2 * k < r:  # g_k + g_{r-k}
                weight = 2 * (p.n - 1) * row[k] + below + row[k + 1]
            else:  # the middle term k = r/2 has no partner
                weight = (p.n - 1) * row[k] + below
            total += weight * d[k] * d[r - k]
        d.append(-total)
        row = [1] + [row[i - 1] + row[i] for i in range(1, r + 1)] + [1]
    return tuple(p.c**j * p.k0 ** (j - 1) * Fraction(d[j - 1], j) for j in range(1, order + 1))


class TestCoefficients:
    def test_frozen_first_five(self):
        seq = u_coeffs(CalabiParams(2, 2, 1), 5)
        assert seq.values == (1, -1, 4, -30, 336)

    def test_a1_is_c_and_a2_formula(self):
        rng = random.Random(21)
        for _ in range(25):
            n = rng.randint(2, 6)
            k0 = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            c = Fraction(rng.randint(1, 8), rng.randint(1, 4))
            a1, a2 = u_coeffs_closed(CalabiParams(n, k0, c), 2).values
            assert a1 == c
            assert a2 == -(n - 1) * k0 * c**2 / 2

    def test_product_formula_elementwise(self):
        p = CalabiParams(3, Fraction(5, 2), Fraction(2, 7))
        seq = u_coeffs_closed(p, 9)
        assert len(seq.values) == 9
        for j, a_j in enumerate(seq.values, 1):
            prod = 1
            for s in range(1, j):
                prod *= p.n * s - 1
            expected = Fraction((-1) ** (j + 1), j) * p.c**j * p.k0 ** (j - 1) * prod
            assert a_j == expected

    @pytest.mark.parametrize(
        "n, k0, c",
        [
            (2, Fraction(7, 3), Fraction(5, 2)),
            (3, Fraction(2, 9), Fraction(11, 4)),
            (5, Fraction(13, 2), Fraction(3, 8)),
            (6, Fraction(97, 3), Fraction(89, 7)),
        ],
    )
    def test_product_formula_to_order_300(self, n, k0, c):
        expected, prod = [], Fraction(1)
        for j in range(1, 301):
            expected.append(Fraction((-1) ** (j + 1), j) * c**j * k0 ** (j - 1) * prod)
            prod *= n * j - 1
        assert u_coeffs_closed(CalabiParams(n, k0, c), 300).values == tuple(expected)

    def test_signs_alternate_strictly(self):
        for p in GRID:
            seq = u_coeffs_closed(p, 20)
            assert len(seq.values) == 20
            for j, a_j in enumerate(seq.values, 1):
                assert a_j != 0
                assert (a_j > 0) == (j % 2 == 1)

    def test_routes_agree_to_order_64(self):
        for p in GRID:
            closed = u_coeffs_closed(p, 64)
            ode = u_coeffs_ode(p, 64)
            assert closed.values == ode.values, f"disagreement at {p}"

    def test_routes_agree_to_order_300(self):
        for n in range(2, 7):
            for k0, c in ((Fraction(7, 3), Fraction(5, 2)), (Fraction(5, 4), Fraction(9, 7))):
                p = CalabiParams(n, k0, c)
                assert u_coeffs_ode(p, 300).values == u_coeffs_closed(p, 300).values, p

    def test_ode_matches_fraction_forward_substitution(self):
        # The integer recurrence on the ordinary coefficients of V = 1 + W
        # must give exactly what forward substitution on the untransformed
        # condition gives, order by order.
        rng = random.Random(24)
        for _ in range(6):
            n = rng.randint(2, 6)
            k0 = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            c = Fraction(rng.randint(1, 9), rng.randint(1, 5))
            p = CalabiParams(n, k0, c)
            reference = _fraction_forward_substitution(p, 40)  # prefix-stable
            for order in range(1, 41):
                assert u_coeffs_ode(p, order).values == reference[:order], (p, order)

    @pytest.mark.parametrize("n, order", [(2, 200), (3, 200), (7, 200), (97, 200), (10**6, 40)])
    def test_ode_matches_exponential_recurrence(self, n, order):
        # A second integer route on W = V - 1; at n = 2 the (n-2) term of
        # the ordinary recurrence vanishes and V^2 = 1 + 2y.
        p = CalabiParams(n, Fraction(7, 3), Fraction(5, 2))
        assert u_coeffs_ode(p, order).values == _exponential_recurrence(p, order)

    def test_scaled_coefficients_are_integers(self):
        # The claim behind the exact-division guard: at k0 = c = 1,
        # N_j = n^j a_j / (j-1)! equals n^{2j} C(1/n, j), an integer.
        for n in range(2, 13):
            values = u_coeffs_ode(CalabiParams(n, 1, 1), 60).values
            for j, a_j in enumerate(values, start=1):
                scaled = a_j * n**j / math.factorial(j - 1)
                assert scaled == n ** (2 * j) * generalized_binomial(Fraction(1, n), j), (n, j)
                assert scaled.denominator == 1, (n, j)

    def test_inexact_division_is_a_hard_error(self, monkeypatch):
        # A corrupted product leaves an odd row sum at s = 2, which
        # 2 s (s-1) = 4 cannot divide; the route must not floor it.
        monkeypatch.setattr(potential_mod, "mul", lambda x, y: x * y + 1)
        with pytest.raises(CoefficientMethodMismatch, match="s=2"):
            u_coeffs_ode(CalabiParams(3, 2, 1), 5)

    def test_mismatch_is_a_hard_error(self, monkeypatch):
        p = CalabiParams(2, 2, 1)
        good = u_coeffs_closed(p, 4)
        corrupted = CoefficientSequence(good.values[:3] + (Fraction(1),))
        monkeypatch.setattr(potential_mod, "u_coeffs_closed", lambda *a: corrupted)
        with pytest.raises(CoefficientMethodMismatch, match="j=4"):
            u_coeffs(p, 4)

    def test_mismatch_names_the_first_bad_index(self, monkeypatch):
        # Two corrupted entries: the message names the lower index and
        # both values there, never the later one.
        p = CalabiParams(3, 2, 1)
        good = u_coeffs_closed(p, 8).values
        bad = list(good)
        bad[2], bad[5] = good[2] + 1, good[5] - 1
        corrupted = CoefficientSequence(bad)
        monkeypatch.setattr(potential_mod, "u_coeffs_closed", lambda *a: corrupted)
        with pytest.raises(CoefficientMethodMismatch) as caught:
            u_coeffs(p, 8)
        assert str(caught.value) == (
            f"coefficient routes disagree at j=3 for n=3, k0=2, c=1: "
            f"closed-form {good[2] + 1} vs forward substitution {good[2]}"
        )

    def test_cross_checked_sequence_equals_each_route(self):
        p = CalabiParams(3, Fraction(7, 3), Fraction(5, 2))
        assert u_coeffs(p, 30) == u_coeffs_ode(p, 30) == u_coeffs_closed(p, 30)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            u_coeffs_closed(CalabiParams(2, 2, 1), 0)
        with pytest.raises(ValueError):
            u_coeffs_ode(CalabiParams(2, 2, 1), 0)


class TestConditionSeries:
    def test_residual_vanishes(self):
        for p in GRID[:8]:
            residual = condition_series_residual(p, 12)
            assert residual.order == 12
            assert not any(residual.coeffs), f"nonzero residual for {p}"

    def test_residual_vanishes_at_order_40(self):
        for p in (
            CalabiParams(2, Fraction(7, 3), Fraction(5, 2)),
            CalabiParams(3, Fraction(4, 3), Fraction(5, 2)),
            CalabiParams(5, Fraction(2, 9), Fraction(3, 4)),
        ):
            assert not any(condition_series_residual(p, 40).coeffs), p

    def test_residual_catches_wrong_coefficients(self):
        # The same re-expansion with a perturbed sequence must not vanish:
        # guards against the check being trivially zero.
        p = CalabiParams(2, 2, 1)
        residual = condition_series_residual(p, 6)
        assert not any(residual.coeffs)
        perturbed = CalabiParams(2, 2, 2)  # c enters the condition constant
        seq = u_coeffs_ode(p, 9)
        from calabi_bell.series import TruncatedSeries

        u_prime = TruncatedSeries(
            tuple(seq.values[k] / math.factorial(k) for k in range(8))
        )
        x = TruncatedSeries.x(7)
        horizontal = 1 + perturbed.k0 * (x * u_prime)
        fiber = u_prime + x * u_prime.derivative()
        wrong = horizontal.pow_int(perturbed.n - 1) * fiber - perturbed.c
        assert any(wrong.coeffs)

    def test_taylor_series_layout(self):
        seq = u_coeffs(CalabiParams(2, 2, 1), 4)
        series = taylor_series(seq)
        assert series.coeffs == (0, 1, Fraction(-1, 2), Fraction(4, 6), Fraction(-30, 24))


class TestBlockConstants:
    def test_frozen_quadruple(self):
        values = h_values(CalabiParams(2, 2, 1), 1, 4)
        assert values == (1, 0, Fraction(1, 3), Fraction(-2, 3))
        assert all(type(h) is Fraction for h in values)

    def test_h1_is_mc(self):
        rng = random.Random(22)
        for _ in range(25):
            n = rng.randint(2, 5)
            k0 = Fraction(rng.randint(1, 6))
            c = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            m = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            assert h_values(CalabiParams(n, k0, c), m, 1) == (m * c,)

    def test_h2_formula_at_m(self):
        # h_2 = (c^2 m / 2)(m - (n-1) k0 / 2), from a_2 + m a_1^2 over 2.
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randint(2, 5)
            k0 = Fraction(rng.randint(1, 6))
            c = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            m = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            expected = c**2 * m / 2 * (m - Fraction(n - 1) * k0 / 2)
            assert h_values(CalabiParams(n, k0, c), m, 2)[-1] == expected

    def test_h_values_match_single_calls(self):
        p = CalabiParams(3, 4, Fraction(1, 2))
        batch = h_values(p, Fraction(3, 2), 6)
        assert len(batch) == 6
        for r, h in enumerate(batch, 1):
            assert h_values(p, Fraction(3, 2), r) == batch[:r]

    def test_h_matches_exp_expansion(self):
        # h_r is the r-th Taylor coefficient of e^{m u} - 1, through r = 120,
        # far past the r <= 40 re-check of h_values.
        from calabi_bell.series import exp_of

        cases = [
            (CalabiParams(2, 4, Fraction(1, 3)), Fraction(2)),
            (CalabiParams(3, Fraction(7, 3), Fraction(5, 2)), Fraction(3, 2)),
            (CalabiParams(4, Fraction(5, 4), Fraction(2, 7)), Fraction(9, 5)),
            (CalabiParams(6, Fraction(97, 3), Fraction(89, 7)), Fraction(1, 3)),
        ]
        for p, m in cases:
            series = exp_of(m * taylor_series(u_coeffs_closed(p, 120)))
            assert h_values(p, m, 120) == series.coeffs[1:], (p, m)

    def test_h_matches_bell_sum(self):
        # h_r = (1/r!) sum_j m^j B_{r,j}(a_1..a_r), read from a Bell table.
        cases = [
            (CalabiParams(2, 2, 1), Fraction(1)),
            (CalabiParams(3, Fraction(4, 3), Fraction(5, 2)), Fraction(3, 2)),
            (CalabiParams(5, 6, Fraction(1, 3)), Fraction(7, 2)),
        ]
        for p, m in cases:
            table = BellTable(u_coeffs_closed(p, 30).values)
            for r, h in enumerate(h_values(p, m, 30), 1):
                bell_sum = sum(m**j * table.value(r, j) for j in range(1, r + 1))
                assert h == bell_sum / math.factorial(r)

    def test_validation(self):
        p = CalabiParams(2, 2, 1)
        with pytest.raises(ValueError):
            h_values(p, 0, 1)
        with pytest.raises(TypeError):
            h_values(p, 0.5, 1)
        with pytest.raises(ValueError):
            h_values(p, 1, 0)


class TestEvaluator:
    def test_u_vanishes_at_zero(self):
        for p in CRITERION_PARAMS:
            value, residue = ClosedFormEvaluator(p).u_with_residue(0.0)
            assert abs(value) < 1e-14
            assert residue < 1e-12

    def test_derivative_at_zero_matches_c(self):
        for p in CRITERION_PARAMS:
            fd = ClosedFormEvaluator(p).derivative_fd(0.0)
            assert abs(fd - float(p.c)) < 1e-8, (p, fd)

    def test_fd_agrees_with_analytic(self):
        for p in CRITERION_PARAMS:
            ev = ClosedFormEvaluator(p)
            for x in (0.0, 0.3, 1.0, 2.7, 5.0, 10.0):
                _, u1, _ = ev.derivatives(x)
                fd = ev.derivative_fd(x)
                assert abs(fd - u1) <= 1e-6 * max(1.0, abs(u1)), (p, x, fd, u1)

    def test_horizontal_factor_is_the_root(self):
        # 1 + k0 x u' collapses to t(x) = (1 + n k0 c x)^{1/n}: a sharp
        # internal identity of the closed form.
        for p in CRITERION_PARAMS:
            ev = ClosedFormEvaluator(p)
            slope = float(p.radicand_slope)
            for x in (0.0, 0.5, 1.0, 4.0, 10.0):
                report = ev.condition_report(x)
                t = (1.0 + slope * x) ** (1.0 / p.n)
                assert abs(report.horizontal_factor - t) < 1e-10 * max(1.0, t)

    def test_condition_holds_on_sample(self):
        for p in CRITERION_PARAMS:
            ev = ClosedFormEvaluator(p)
            for i in range(20):
                x = 10.0 * i / 19
                report = ev.condition_report(x)
                assert report.horizontal_factor > 0
                assert report.fiber_factor > 0
                assert abs(report.ode_residual) < 1e-8
                assert report.imaginary_residue < 1e-10

    def test_taylor_window_certified(self):
        # On [0, 0.1] the terms alternate with ratio < n k0 c x < 1, so
        # |u - T_10| <= |a_11| x^11 / 11! exactly; the evaluator must sit
        # inside that envelope up to double-precision noise.
        for p in CRITERION_PARAMS:
            ev = ClosedFormEvaluator(p)
            seq = u_coeffs(p, 11)
            degree10 = taylor_series(CoefficientSequence(seq.values[:10]))
            tail_coeff = abs(seq.values[10]) / math.factorial(11)
            for i in range(21):
                x = Fraction(i, 200)  # uniform through 1/10 exactly
                bound = float(tail_coeff * x**11)
                approx = float(degree10.evaluate(x))
                value = ev.u(float(x))
                assert abs(value - approx) <= bound + 1e-12 * max(1.0, abs(value)), (
                    p,
                    float(x),
                )

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            ClosedFormEvaluator(CalabiParams(2, 2, 1)).u(-0.5)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_rejected(self, x):
        ev = ClosedFormEvaluator(CalabiParams(2, 2, 1))
        for method in (ev.u, ev.derivatives, ev.condition_report):
            with pytest.raises(ValueError, match="finite"):
                method(x)

    def test_overflowing_radicand_rejected(self):
        for p in (CalabiParams(2, 2, 1), CalabiParams(3, 2, 1)):
            ev = ClosedFormEvaluator(p)
            for method in (ev.u, ev.derivatives, ev.condition_report):
                with pytest.raises(ValueError, match="radicand"):
                    method(1e308)

    def test_overflowing_value_rejected(self):
        # The radicand 1 + 2x stays finite, but n/k0 * t does not.
        ev = ClosedFormEvaluator(CalabiParams(2, Fraction(1, 10**300), Fraction(10**300)))
        for method in (ev.u, ev.derivatives, ev.condition_report):
            with pytest.raises(ValueError, match="u is not a finite double"):
                method(1e300)

    @pytest.mark.parametrize(
        "k0,c,message",
        [
            (Fraction(10**400), 1, "k0 overflows a double"),
            (Fraction(1, 10**400), 1, "k0 underflows a double"),
            (1, Fraction(1, 10**400), "c underflows a double"),
            (Fraction(10**200), Fraction(10**200), "n k0 c overflows a double"),
            (Fraction(1, 10**200), Fraction(1, 10**200), "n k0 c underflows a double"),
        ],
        ids=["k0=10^400", "k0=10^-400", "c=10^-400", "k0=c=10^200", "k0=c=10^-200"],
    )
    def test_parameters_outside_a_double_rejected(self, k0, c, message):
        with pytest.raises(InputError) as caught:
            ClosedFormEvaluator(CalabiParams(2, k0, c))
        assert str(caught.value) == message

    def test_parameters_near_a_double_limit_accepted(self):
        # k0 and c far apart in scale, n k0 c = 2: every factor fits.
        ev = ClosedFormEvaluator(CalabiParams(2, Fraction(10**300), Fraction(1, 10**300)))
        assert 0 < ev.u(1.0) < 1e-299
        assert ev.condition_report(1.0).ode_residual == pytest.approx(0, abs=1e-12)

    def test_nan_residue_trips_the_guard(self):
        ev = ClosedFormEvaluator(CalabiParams(2, 2, 1))
        with pytest.raises(BranchResidueError):
            ev._guard(complex(1.0, math.nan), 1.0, "u")

    def test_branch_guard_trips_on_tiny_tolerance(self, monkeypatch):
        p = CalabiParams(3, 2, 1)
        residues = [
            ClosedFormEvaluator(p).u_with_residue(x)[1] for x in (0.5, 1.0, 2.0, 3.0)
        ]
        assert any(res > 0 for res in residues)
        x_hot = [x for x, res in zip((0.5, 1.0, 2.0, 3.0), residues) if res > 0][0]
        monkeypatch.setattr(potential_mod, "IMAG_TOL", 0.0)
        with pytest.raises(BranchResidueError, match="exceeds tolerance 0.0e"):
            ClosedFormEvaluator(p).u(x_hot)

    def test_condition_report_fields(self):
        report = ClosedFormEvaluator(CalabiParams(2, 2, 1)).condition_report(1.0)
        assert math.isclose(report.horizontal_factor, math.sqrt(5.0), rel_tol=1e-12)
        assert math.isclose(
            report.fiber_factor, 1.0 / math.sqrt(5.0), rel_tol=1e-12
        )
