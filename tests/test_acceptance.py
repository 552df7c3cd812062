"""Acceptance gate.

One test per shipped acceptance check, each printing a single pass/fail
line (written straight to the real stdout so it survives pytest capture).
Tolerances and time budgets are part of the contract and are asserted
as stated, not loosened.

Check 6 compares the double-precision closed form with the exact Taylor
expansion of u on [0, 0.1] at 1e-9 relative, under both the guarded
|u - T|/max(1, |u|) and the strict |u - T|/|u| convention. On that window
the series alternates with term ratio < n*k0*c*x < 1, so |u - T_N| is at
most the first omitted term |a_{N+1}| x^{N+1}/(N+1)!. The reference degree
N is the smallest one (N >= 10) whose tail at x = 1/10 is <= 1e-12, found
exactly in the test, so the comparison measures the evaluator and not the
truncation. Degree 10 alone misses 1e-9 by orders; its certified envelope
is tested in test_potential.py::TestEvaluator::test_taylor_window_certified.
"""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from calabi_bell.bell import (
    BellTable,
    complete_bell,
    partial_bell_partition,
    partial_bell_recurrence,
)
from calabi_bell.diastasis import FubiniStudyBase, eh_block_scan, fs_power_matrix, psd_check
from calabi_bell.inequality import alternating_bell_sum, min_negative_r
from calabi_bell.potential import (
    CalabiParams,
    ClosedFormEvaluator,
    CoefficientSequence,
    h_values,
    u_coeffs,
    u_coeffs_closed,
    u_coeffs_ode,
)
from calabi_bell.rationals import factorial
from calabi_bell.series import TruncatedSeries, exp_of, taylor_series

FIXTURES = Path(__file__).parent / "fixtures"

CRITERION_PARAMS = [
    CalabiParams(2, 2, 1),
    CalabiParams(3, 2, 1),
    CalabiParams(4, 4, Fraction(1, 2)),
]


EMITTED: list[str] = []


def emit(check: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {check}: {detail}"
    EMITTED.append(line)
    print(line)


def test_check_1_potential_coefficients():
    """First five derivatives at (n,k0,c) = (2,2,1), both routes, < 1 s."""
    start = time.perf_counter()
    closed = u_coeffs_closed(CalabiParams(2, 2, 1), 5)
    ode = u_coeffs_ode(CalabiParams(2, 2, 1), 5)
    both = u_coeffs(CalabiParams(2, 2, 1), 5)
    elapsed = time.perf_counter() - start
    expected = (1, -1, 4, -30, 336)
    ok = (
        closed.values == expected
        and ode.values == expected
        and both.values == expected
        and elapsed < 1.0
    )
    emit(
        "1",
        ok,
        f"(a_1..a_5) = {tuple(map(str, ode.values))} by both routes in {elapsed:.3f}s",
    )
    assert closed.values == expected, f"closed-form route gave {closed.values}"
    assert ode.values == expected, f"forward-substitution route gave {ode.values}"
    assert both.values == expected
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"


def test_check_2_block_constants():
    """h_2 exact over the parameter grid; pinned h_3, h_4 on the line n=2, k0=2."""
    failures = []
    for n in (2, 3, 4, 5):
        for k0 in (2, 4, 6):
            for c in (Fraction(1), Fraction(1, 3)):
                value = h_values(CalabiParams(n, Fraction(k0), c), 1, 2)[1]
                expected = (1 - Fraction(n - 1) * k0 / 2) * c**2 / 2
                if value != expected:
                    failures.append((n, k0, c, value, expected))
    for c in (Fraction(1), Fraction(1, 3), Fraction(5, 2)):
        batch = h_values(CalabiParams(2, 2, c), 1, 4)
        if batch[2] != c**3 / 3:
            failures.append(("h_3", c, batch[2]))
        if batch[3] != Fraction(-2, 3) * c**4:
            failures.append(("h_4", c, batch[3]))
    ok = not failures
    emit("2", ok, "h_2 formula exact on 24-point grid; h_3 = c^3/3, h_4 = -2c^4/3 at n=2, k0=2")
    assert ok, f"exact h mismatches: {failures}"


def test_check_3_sign_scan_smallest_case():
    """S(2, 1/2, r) pinned at r = 2, 3, 4 and the witness r = 4, < 1 s."""
    start = time.perf_counter()
    q = Fraction(1, 2)
    values = [alternating_bell_sum(2, q, r) for r in (2, 3, 4)]
    report = min_negative_r(2, q, 200)
    elapsed = time.perf_counter() - start
    ok = values == [0, Fraction(1, 4), -1] and report.min_negative_r == 4 and elapsed < 1.0
    emit(
        "3",
        ok,
        f"S(2,1/2,(2,3,4)) = {tuple(map(str, values))}, first negative at r = "
        f"{report.min_negative_r}, {elapsed:.3f}s",
    )
    assert values == [0, Fraction(1, 4), -1], values
    assert report.min_negative_r == 4
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"


def test_check_4_scan_grid_regression():
    """Every (n, q) on the grid finds a negative r by 200; frozen values; < 120 s."""
    fixture = json.loads((FIXTURES / "scan_min_r.json").read_text())
    assert fixture["r_max"] == 200
    start = time.perf_counter()
    mismatches = []
    for case in fixture["cases"]:
        report = min_negative_r(case["n"], Fraction(case["q"]), 200)
        if report.min_negative_r != case["min_negative_r"]:
            mismatches.append((case, report.min_negative_r))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 120.0
    emit(
        "4",
        ok,
        f"{len(fixture['cases'])} grid scans matched frozen witnesses in {elapsed:.3f}s",
    )
    assert not mismatches, f"scan regressions: {mismatches}"
    assert elapsed < 120.0, f"took {elapsed:.3f}s, budget 120s"


def test_check_5_randomized_identities():
    """Five exact identity families, 100 fresh random cases each."""
    rng = random.Random(20260814)
    counts = {"exp-bridge": 0, "homogeneity": 0, "scaling-bridge": 0, "partition": 0, "stirling": 0}

    def frac(span=9):
        return Fraction(rng.randint(-span, span), rng.randint(1, span))

    def pos_frac(span=6):
        return Fraction(rng.randint(1, span), rng.randint(1, span))

    # (a) r! [x^r] exp(sum a_k x^k/k!) == Y_r(a_1..a_r), r <= 32
    for _ in range(100):
        r = rng.randint(1, 32)
        a = [frac() for _ in range(r)]
        gen = TruncatedSeries((Fraction(0),) + tuple(a[k - 1] / factorial(k) for k in range(1, r + 1)))
        assert factorial(r) * exp_of(gen).coefficient(r) == complete_bell(r, a)
        counts["exp-bridge"] += 1

    # (b) B_{r,j}(t p x_1, t p^2 x_2, ...) == t^j p^r B_{r,j}(x), r <= 10
    for _ in range(100):
        r = rng.randint(1, 10)
        j = rng.randint(1, r)
        xs = [frac() for _ in range(r - j + 1)]
        t, p = frac() or Fraction(1), frac() or Fraction(1)
        scaled = [t * p ** (i + 1) * x for i, x in enumerate(xs)]
        lhs = partial_bell_recurrence(r, j, scaled)
        assert lhs == t**j * p**r * partial_bell_recurrence(r, j, xs)
        counts["homogeneity"] += 1

    # (c) r! h_r == (c k0)^r S(n, m/k0, r), r <= 32
    for _ in range(100):
        n = rng.randint(2, 5)
        k0, c, m = Fraction(rng.randint(1, 6)), pos_frac(), pos_frac()
        r = rng.randint(1, 32)
        h_val = h_values(CalabiParams(n, k0, c), m, r)[-1]
        s_val = alternating_bell_sum(n, m / k0, r)
        assert factorial(r) * h_val == (c * k0) ** r * s_val
        counts["scaling-bridge"] += 1

    # (d) partition sum == recurrence, r <= 12
    for _ in range(100):
        r = rng.randint(1, 12)
        j = rng.randint(1, r)
        xs = [frac() for _ in range(r - j + 1)]
        assert partial_bell_partition(r, j, xs) == partial_bell_recurrence(r, j, xs)
        counts["partition"] += 1

    # (e) unit inputs give Stirling set numbers (checked by their own
    # recurrence) and row sums give Bell numbers, r <= 12
    stirling = {(0, 0): 1}
    for rr in range(1, 13):
        stirling[(rr, 0)] = 0
        for jj in range(1, rr + 1):
            stirling[(rr, jj)] = jj * stirling.get((rr - 1, jj), 0) + stirling[(rr - 1, jj - 1)]
    bell_numbers = [1]
    for nn in range(12):
        bell_numbers.append(sum(bell_numbers[k] * math.comb(nn, k) for k in range(nn + 1)))
    table = BellTable([1] * 12)
    for _ in range(100):
        r = rng.randint(1, 12)
        j = rng.randint(1, r)
        assert table.value(r, j) == stirling[(r, j)]
        assert complete_bell(r, [1] * r) == bell_numbers[r]
        counts["stirling"] += 1

    ok = all(v >= 100 for v in counts.values())
    emit("5", ok, "five exact identity families x 100 randomized cases each")
    assert ok, counts


def test_check_6_numeric_evaluator():
    """Numeric closed form: value, derivative, positivity, residuals, and
    agreement with the exact Taylor expansion to 1e-9 on [0, 0.1]."""
    sub = {}

    # u(0) = 0 and central-difference u'(0) within 1e-8 of c.
    sub["u(0)"] = all(
        abs(ClosedFormEvaluator(p).u(0.0)) < 1e-12 for p in CRITERION_PARAMS
    )
    sub["fd-u'(0)"] = all(
        abs(ClosedFormEvaluator(p).derivative_fd(0.0) - float(p.c)) < 1e-8
        for p in CRITERION_PARAMS
    )

    # Positivity of both metric factors and defining-condition residual
    # < 1e-8 relative at 20 samples of [0, 10]; imaginary residue < 1e-10.
    positive, residual_ok, imag_ok = True, True, True
    for p in CRITERION_PARAMS:
        ev = ClosedFormEvaluator(p)
        for i in range(20):
            report = ev.condition_report(10.0 * i / 19)
            positive &= report.horizontal_factor > 0 and report.fiber_factor > 0
            residual_ok &= abs(report.ode_residual) < 1e-8
            imag_ok &= report.imaginary_residue < 1e-10
    sub["positivity"] = positive
    sub["residual<1e-8"] = residual_ok
    sub["imag<1e-10"] = imag_ok

    # Taylor window: |u - T_N| < 1e-9 relative, guarded and strict, on 21
    # uniform points of [0, 0.1]. T_N is carried to the smallest degree
    # N >= 10 whose alternating tail |a_{N+1}| (1/10)^{N+1}/(N+1)! is
    # <= 1e-12, which bounds |u - T_N| on the whole window.
    x_max = Fraction(1, 10)
    measured = []
    for p in CRITERION_PARAMS:
        assert p.radicand_slope * x_max < 1, f"{p}: Taylor terms need not alternate"
        seq = u_coeffs(p, 100)

        def tail(N):
            return abs(seq.values[N]) * x_max ** (N + 1) / factorial(N + 1)

        degree = next(
            (N for N in range(10, len(seq.values)) if tail(N) <= Fraction(1, 10**12)), None
        )
        assert degree is not None, f"{p}: no degree <= 99 has tail <= 1e-12"
        poly = taylor_series(CoefficientSequence(seq.values[:degree]))
        ev = ClosedFormEvaluator(p)
        guarded = strict = 0.0
        for i in range(21):
            x = Fraction(i, 200)  # uniform through 1/10 exactly
            value = ev.u(float(x))
            gap = abs(value - float(poly.evaluate(x)))
            guarded = max(guarded, gap / max(1.0, abs(value)))
            if i > 0:
                strict = max(strict, gap / abs(value))
        measured.append((p, degree, float(tail(degree)), guarded, strict))
    sub["taylor<1e-9"] = all(g < 1e-9 and s < 1e-9 for _, _, _, g, s in measured)

    def describe(p, degree, tail, guarded, strict):
        return (
            f"(n={p.n}, k0={p.k0}, c={p.c}) N={degree}, tail {tail:.1e}, "
            f"guarded {guarded:.1e}, strict {strict:.1e}"
        )

    ok = all(sub.values())
    failing = [k for k, v in sub.items() if not v]
    emit(
        "6",
        ok,
        "u(0), u'(0), positivity, residual and branch guards at stated tolerances; "
        "Taylor window < 1e-9: "
        + "; ".join(describe(*m) for m in measured)
        + (f" -- sub-checks {failing} fail" if failing else ""),
    )
    for name in ("u(0)", "fd-u'(0)", "positivity", "residual<1e-8", "imag<1e-10"):
        assert sub[name], f"sub-check {name} failed"
    for m in measured:
        _, _, _, guarded, strict = m
        assert guarded < 1e-9, f"guarded Taylor gap: {describe(*m)}"
        assert strict < 1e-9, f"strict Taylor gap: {describe(*m)}"


def test_check_7_projective_line_demo():
    """The three base normalizations, exact scales, < 5 s."""
    start = time.perf_counter()
    tight = eh_block_scan(FubiniStudyBase(1, 1), 1, 8)
    balanced = eh_block_scan(FubiniStudyBase(1, 2), 1, 8)
    failing = eh_block_scan(FubiniStudyBase(1, 3), 1, 8)
    elapsed = time.perf_counter() - start
    checks = [
        tight.first_negative_r == 2,
        tight.blocks[2].scale == Fraction(-1, 2),
        balanced.first_negative_r == 4,
        balanced.blocks[2].scale == 0,
        balanced.blocks[4].scale == Fraction(-2, 3),
        failing.integrality_failure,
        failing.k0 == Fraction(4, 3),
        elapsed < 5.0,
    ]
    ok = all(checks)
    emit(
        "7",
        ok,
        f"multiple 1 fails at r=2 (scale -1/2), multiple 2 at r=4 (zero block at r=2), "
        f"multiple 3 on integrality, {elapsed:.3f}s",
    )
    assert ok, checks
    assert elapsed < 5.0, f"took {elapsed:.3f}s, budget 5s"


def test_check_8_psd_direction():
    """Integer powers 1..6 over d in {1,2} at cutoff 8 are PSD; the
    half-integer power is the non-PSD witness."""
    bad = [
        (d, exponent)
        for d in (1, 2)
        for exponent in range(1, 7)
        if psd_check(fs_power_matrix(d, exponent, 8)) != "PSD"
    ]
    witness = psd_check(fs_power_matrix(1, Fraction(1, 2), 8))
    ok = not bad and witness == "not-PSD"
    emit("8", ok, "powers 1..6 PSD at cutoff 8 for d in {1,2}; power 1/2 is not-PSD")
    assert not bad, f"unexpected non-PSD integer powers: {bad}"
    assert witness == "not-PSD"
