"""One measuring process of the benchmark, always a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE
    python3 perfbench/worker.py WORKLOAD SEED setup

The clock starts before ``calabi_bell`` is imported; ``setup_s`` ends
when the workload's inputs are generated, so it covers the import of the
package and its CLI plus input generation and nothing of the measuring
harness, which is imported afterwards. With ``setup`` the process stops
there, calibrates the machine's speed (``calibrate.py``) and prints
``{"setup_s": ..., "cal_s": ...}``; otherwise ``harness.measure`` runs
the passes and the process prints its JSON record.
"""

import sys
import time

_START = time.perf_counter()

import os  # noqa: E402

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, _SRC)

import calabi_bell  # noqa: E402
import calabi_bell.cli  # noqa: E402
import workloads  # noqa: E402

if not os.path.abspath(calabi_bell.__file__).startswith(_SRC + os.sep):
    sys.exit(f"calabi_bell was imported from {calabi_bell.__file__}, not from {_SRC}")

from fractions import Fraction  # noqa: E402


def _params(p: dict):
    return calabi_bell.CalabiParams(p["n"], Fraction(p["k0"]), Fraction(p["c"]))


def _exp_of_potential(params, m, order):
    return calabi_bell.exp_of(m * calabi_bell.taylor_series(calabi_bell.u_coeffs_closed(params, order)))


# call -> (convert the generated inputs, call the library, serialize the result).
# Conversion happens while generating; calls look names up on the package at
# call time, so traced passes reach the wrapped functions.
LIB_CALLS = {
    "psd_check": (
        lambda rows: (rows,),
        lambda rows: calabi_bell.psd_check(rows),
        lambda verdict: verdict,
    ),
    "fs_power_matrix": (
        lambda d, exponent, cutoff: (d, Fraction(exponent), cutoff),
        lambda d, exponent, cutoff: calabi_bell.fs_power_matrix(d, exponent, cutoff),
        lambda m: [[list(alpha), workloads.fmt(e)] for alpha, e in zip(m.indices, m.entries)],
    ),
    "condition_series_residual": (
        lambda p, order: (_params(p), order),
        lambda params, order: calabi_bell.condition_series_residual(params, order),
        lambda s: {"order": s.order, "nonzero": [k for k, c in enumerate(s.coeffs) if c != 0]},
    ),
    "exp_of_potential": (
        lambda p, m, order: (_params(p), Fraction(m), order),
        _exp_of_potential,
        lambda s: [workloads.fmt(c) for c in s.coeffs],
    ),
}


def run_cli(argv: list) -> int:
    return calabi_bell.cli.main(argv)


def prepare(job: dict) -> tuple:
    """(call, args, serialize); serialize is None for CLI jobs."""
    if job["kind"] == "cli":
        return run_cli, (list(job["argv"]),), None
    convert, call, serialize = LIB_CALLS[job["call"]]
    return call, convert(*job["args"]), serialize


def main(argv: list) -> None:
    if hasattr(os, "sched_setaffinity"):
        # One CPU for this single-threaded interpreter: scan_grid's pool
        # threads moving between CPUs made pass times swing by up to half
        # on a 2-vCPU VM, against about a tenth when pinned.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload, seed, seconds = argv[0], int(argv[1]), argv[2]
    jobs = [prepare(job) for job in workloads.generate(workload, seed)]
    setup_s = time.perf_counter() - _START
    import json

    if seconds == "setup":
        import calibrate

        print(json.dumps({"setup_s": setup_s, "cal_s": calibrate.calibrate()}))
        return
    import harness

    record = harness.measure(jobs, float(seconds), traced=argv[3] == "1")
    record["setup_s"] = setup_s
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
