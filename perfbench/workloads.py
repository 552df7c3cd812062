"""Seeded job lists for the calabi-bell benchmark.

A job is a plain dict. ``kind`` is ``"cli"`` (``argv`` goes to
``calabi_bell.cli.main``) or ``"lib"`` (``call`` names a public library
entry point in ``worker.LIB_CALLS`` and ``args`` holds its inputs).
``check`` names the oracle in ``oracle.CHECKS`` and ``spec`` holds what
the oracle needs. Only ``argv`` / ``call`` + ``args`` reach the program.

The seed moves every input, but each workload keeps a fixed cost profile:
job slots have fixed centres (q, order, r_max, matrix size), the seed
draws offsets in antithetic pairs (+u for one job, -u for its twin), and
twin jobs share a fixed pair of parameter bundles in seeded order. So the
work of a pass, and of its slowest jobs, stays close to constant while the
exact inputs, formats and job order change. That keeps the run-to-run
spread within the regression bounds in BENCHMARK.json.

This module imports nothing from calabi_bell.
"""

from __future__ import annotations

import random
from fractions import Fraction

DEFAULT_SEED = 1
FORMATS = ("table", "json", "csv")


def fmt(value: Fraction | int) -> str:
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _pairs(rng: random.Random, count: int, spread: int) -> list[int]:
    """``count`` offsets in [-spread, spread]: entries 2k and 2k+1 are u and
    -u, and an unpaired last entry is 0."""
    offsets = []
    for _ in range(count // 2):
        u = rng.randint(-spread, spread)
        offsets.extend((u, -u))
    return offsets + [0] * (count % 2)


def _formats(rng: random.Random, count: int) -> list[str]:
    """A balanced, seeded assignment of the three output formats."""
    start = rng.randrange(len(FORMATS))
    chosen = [FORMATS[(start + i) % len(FORMATS)] for i in range(count)]
    rng.shuffle(chosen)
    return chosen


def _cli(argv: list, check: str, **spec) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv], "check": check, "spec": spec}


def _lib(call: str, args: list, check: str, **spec) -> dict:
    return {"kind": "lib", "call": call, "args": args, "check": check, "spec": spec}


def _scan_job(n: int, qs: list[Fraction], r_max: int, form: str, grid: bool) -> dict:
    q_text = ",".join(fmt(q) for q in qs)
    argv = ["scan", "--n", n, "--grid" if grid else "--q", q_text, "--rmax", r_max, "--format", form]
    return _cli(argv, "scan", n=n, qs=[fmt(q) for q in qs], r_max=r_max, format=form, grid=grid)


# -- deep-scan ------------------------------------------------------------------

# (n, q) centres whose witnesses sit at r ~ 100-110, about 1.2-1.9 s each on
# a 2-core Xeon with CPython 3.11: the Bell triangle dominates every job.
DEEP_SCAN_CENTRES = ((2, 64), (3, 104), (4, 146), (5, 185))


def deep_scan(rng: random.Random) -> list[dict]:
    offsets = _pairs(rng, len(DEEP_SCAN_CENTRES), 1)
    forms = _formats(rng, len(DEEP_SCAN_CENTRES))
    jobs = []
    for (n, q), u, form in zip(DEEP_SCAN_CENTRES, offsets, forms):
        r_max = rng.choice((160, 200, 240))
        jobs.append(_scan_job(n, [Fraction(q + u)], r_max, form, grid=False))
    rng.shuffle(jobs)
    return jobs


# -- grid-sweep -----------------------------------------------------------------

# Largest grid q per n; keeps every witness at r <= ~30 so that per-call
# overhead (parsing, the thread pool, rendering) is a large share of a job.
GRID_QMAX = {2: 14, 3: 20, 4: 26, 5: 32, 6: 38}
GRID_SIZES = (3, 5, 8)
BELL_JOBS = 9


def _grid_qs(rng: random.Random, n: int, size: int) -> list[Fraction]:
    """``size`` q values spread over (0, GRID_QMAX[n]], every other one a
    half-integer; neighbours move by +u and -u."""
    qs = []
    for i, u in enumerate(_pairs(rng, size, 1)):
        den = 1 + i % 2
        centre = GRID_QMAX[n] * (2 * i + 1) * den // (2 * size)
        qs.append(Fraction(max(1, centre + u * den), den))
    rng.shuffle(qs)
    return qs


def _bell_job(rng: random.Random, r: int, partial: bool, form: str) -> dict:
    # "--x=..." because a value starting with "-" would read as an option.
    xs = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3)) for _ in range(r)]
    j = rng.randint(1, r) if partial else None
    argv = ["bell", "--r", r, *(["--j", j] if partial else []),
            f"--x={','.join(fmt(x) for x in xs)}", "--format", form]
    return _cli(argv, "bell", r=r, j=j, xs=[fmt(x) for x in xs], format=form)


def grid_sweep(rng: random.Random) -> list[dict]:
    grid_count = len(GRID_QMAX) * len(GRID_SIZES)
    forms = _formats(rng, grid_count + BELL_JOBS)
    jobs = []
    for n in GRID_QMAX:
        for size in GRID_SIZES:
            jobs.append(_scan_job(n, _grid_qs(rng, n, size), rng.choice((60, 80, 200)), forms.pop(), grid=True))
    for k in range(BELL_JOBS):
        jobs.append(_bell_job(rng, 10 + k % 9, partial=k % 3 != 0, form=forms.pop()))
    rng.shuffle(jobs)
    return jobs


# -- coeffs-hr --------------------------------------------------------------------

# hr at r_max ~64 costs about as much as useries at order ~180-200, so the
# six slowest jobs form one group and job_tail_s falls inside it; a pass
# stays near 3 s, so a run holds enough passes for that.
USERIES_ORDERS = (160, 180, 200)
HR_RMAX = (50, 64)
EVAL_JOBS = 3
RESIDUAL_ORDER = 40
EXP_ORDER = 80

# The two jobs of a slot get these two bundles, the first at centre + u and
# the second at centre - u, so the cost of the pair barely depends on the seed.
TWIN_BUNDLES = ({"k0": "4/3", "c": "5/2", "m": "1"}, {"k0": "5/3", "c": "3/2", "m": "3/2"})


def _twins(rng: random.Random, centre: int, spread: int) -> list[tuple[dict, str, int]]:
    """Two (params, m, size) triples around ``centre``, k0 and c != 1."""
    return [({"n": 3, "k0": b["k0"], "c": b["c"]}, b["m"], centre + u)
            for b, u in zip(TWIN_BUNDLES, _pairs(rng, 2, spread))]


def _param_argv(p: dict) -> list:
    return ["--n", p["n"], "--k0", p["k0"], "--c", p["c"]]


def coeffs_hr(rng: random.Random) -> list[dict]:
    jobs = []
    forms = _formats(rng, 2 * len(USERIES_ORDERS) + 2 * len(HR_RMAX) + EVAL_JOBS)
    for centre in USERIES_ORDERS:
        for p, _, order in _twins(rng, centre, 2):
            form = forms.pop()
            argv = ["useries", *_param_argv(p), "--order", order, "--method", "both", "--format", form]
            jobs.append(_cli(argv, "useries", order=order, format=form, **p))
    for centre in HR_RMAX:
        for p, m, r_max in _twins(rng, centre, 1):
            form = forms.pop()
            argv = ["hr", *_param_argv(p), "--m", m, "--rmax", r_max, "--format", form]
            jobs.append(_cli(argv, "hr", m=m, r_max=r_max, format=form, **p))
    for k in range(EVAL_JOBS):
        p = {"n": 2 + k % 3, "k0": fmt(Fraction(rng.choice((4, 5, 7, 8)), 3)),
             "c": fmt(Fraction(rng.choice((3, 5)), 2))}
        radius = 1 / (p["n"] * float(Fraction(p["k0"])) * float(Fraction(p["c"])))
        x = f"{radius * rng.uniform(0.05, 0.6):.6g}"
        form = forms.pop()
        argv = ["useries", *_param_argv(p), "--eval", x, "--format", form]
        jobs.append(_cli(argv, "eval", x=x, format=form, **p))
    for p, _, order in _twins(rng, RESIDUAL_ORDER, 1):
        jobs.append(_lib("condition_series_residual", [p, order], "residual", order=order, **p))
    for p, m, order in _twins(rng, EXP_ORDER, 1):
        jobs.append(_lib("exp_of_potential", [p, m, order], "exp", m=m, order=order, **p))
    rng.shuffle(jobs)
    return jobs


# -- blocks ------------------------------------------------------------------------

BLOCK_CUTOFF = {1: 8, 2: 8, 3: 7, 4: 6, 5: 5, 6: 4}
# Eight psd_check jobs of size 22 cost about the same and sit between the
# blocks jobs that build matrices and the fast ones, so job_p50_s falls
# inside that group whatever the seed makes the blocks jobs cost.
PSD_SIZES = (22, 22, 22, 22, 30, 38)
FS_CUTOFF = {2: 8, 3: 8, 4: 7, 5: 6}


def _dense_matrix(rng: random.Random, size: int, psd: bool) -> list[list[int]]:
    """A Gram matrix A^T A of a rank-deficient A (PSD and singular), or that
    minus a positive diagonal (a kernel vector v of A gives v^T M v < 0)."""
    a = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size - 2)]
    gram = [[sum(row[i] * row[j] for row in a) for j in range(size)] for i in range(size)]
    if not psd:
        for i in range(size):
            gram[i][i] -= rng.randint(1, 3)
    return gram


def blocks(rng: random.Random) -> list[dict]:
    jobs = []
    count = len(BLOCK_CUTOFF) * 3
    offsets, forms = iter(_pairs(rng, count, 4)), _formats(rng, count)
    for d, cutoff in BLOCK_CUTOFF.items():
        for lam in (1, 2, 3):
            c = fmt(Fraction(rng.choice((1, 3, 5, 7)), 2))
            r_max = 25 + next(offsets)
            form = forms.pop()
            argv = ["blocks", "--d", d, "--lambda", lam, "--c", c, "--rmax", r_max,
                    "--cutoff", cutoff, "--format", form]
            jobs.append(_cli(argv, "blocks", d=d, lam=lam, c=c, r_max=r_max, cutoff=cutoff, format=form))
    for size in PSD_SIZES:
        for psd in (True, False):
            jobs.append(_lib("psd_check", [_dense_matrix(rng, size, psd)], "psd", psd=psd))
    for d, cutoff in FS_CUTOFF.items():
        den = rng.choice((2, 3))
        exponent = Fraction(rng.choice([p for p in range(1, 21) if p % den]), den)
        jobs.append(_lib("fs_power_matrix", [d, fmt(exponent), cutoff], "fs_power",
                         d=d, exponent=fmt(exponent), cutoff=cutoff))
    rng.shuffle(jobs)
    return jobs


GENERATORS = {
    "deep-scan": deep_scan,
    "grid-sweep": grid_sweep,
    "coeffs-hr": coeffs_hr,
    "blocks": blocks,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The job list of one pass of ``workload``; same seed, same jobs."""
    if workload not in GENERATORS:
        raise KeyError(f"unknown workload {workload!r}; known: {', '.join(GENERATORS)}")
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
