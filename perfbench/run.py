"""The calabi-bell benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every measurement happens in a fresh
single-threaded interpreter (``worker.py``) that drives the package from
outside, through ``calabi_bell.cli.main(argv)`` and the public library
functions; it receives only the generated inputs. This process checks
every answer against ``oracle.py`` after the worker has exited, so no
check shares the timed code path or its process.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json;
``setup_s`` is the median of several fresh interpreters. Every
end-to-end time is scaled to the reference speed by the calibrations
taken next to it (``calibrate.py``); the lines above the result also
print the times as measured. With
``--trace 1`` the worker alternates untraced and traced passes and this
reports the per-layer metrics, checks that traced answers equal the
untraced ones, and prints the predictions of ``predictions.json``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. A run that cannot measure
(no program to import, a worker that crashes) exits non-zero and prints
no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 8
WORKER_TIMEOUT_S = 170
FIXTURE = os.path.join(ROOT, "tests", "fixtures", "scan_min_r.json")


class BenchmarkError(Exception):
    """The run could not measure; no result is printed."""


def run_worker(workload: str, seed: int, *rest: str, timeout: float) -> dict:
    command = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), *rest]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"worker timed out after {timeout:.0f} s: {' '.join(rest)}") from None
    if done.returncode != 0:
        raise BenchmarkError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def verify(jobs: list[dict], record: dict) -> tuple[int, int, list, list[str]]:
    """(attempted, failed, canonical answers, failure notes).

    An execution fails on a non-zero exit or an exception, on an answer
    the oracle rejects, or when its job gave different answers in
    different passes (traced passes included). Each failing execution is
    counted once.
    """
    verdicts: dict[tuple[str, str], object] = {}
    notes, answers = [], []
    for index, job in enumerate(jobs):
        texts = record["texts"].get(str(index), {})
        canonical = None
        for digest, text in texts.items():
            try:
                canonical = verdicts[index, digest] = oracle.check(job, text)
            except oracle.Mismatch as exc:
                verdicts[index, digest] = exc
        if len(texts) > 1:
            notes.append(f"job {index}: {len(texts)} different answers across passes")
        answers.append(canonical if len(texts) == 1 else None)
    attempted = failed = 0
    for run in record["passes"]:
        for index, status, _, digest in run["jobs"]:
            attempted += 1
            verdict = verdicts.get((index, digest))
            if status != 0:
                notes.append(f"job {index}: {status}")
            elif isinstance(verdict, oracle.Mismatch):
                notes.append(f"job {index}: {verdict}")
            elif len(record["texts"][str(index)]) == 1:
                continue
            failed += 1
    return attempted, failed, answers, notes


def answers_digest(answers: list) -> str:
    return hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest nearest-rank percentile
    with at least ten samples above it; the maximum below 11 samples."""
    ordered = sorted(latencies)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)


def run_record() -> dict:
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        commit = ref
        if ref.startswith("ref: ") and os.path.exists(os.path.join(ROOT, ".git", ref[5:])):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                commit = handle.read().strip()
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "commit": commit,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
    }


def pass_wall(run: dict, cal: list[float]) -> float:
    """A pass's wall time at the reference speed: scaled by the mean of the
    calibrations from the one before its first job to the one after it."""
    return calibrate.scale(run["wall_s"], statistics.mean(cal[run["cal"][0]:run["cal"][-1] + 2]))


def job_latencies(run: dict, cal: list[float]) -> list[float]:
    """A pass's job latencies, each scaled by the two calibrations around it."""
    return [calibrate.scale(job[2], (cal[k] + cal[k + 1]) / 2) for job, k in zip(run["jobs"], run["cal"])]


def end_to_end(record: dict, setups: list[float], raw_setups: list[float]) -> dict[str, float]:
    cal = record["cal_s"]
    untraced = [p for p in record["passes"] if not p["traced"]]
    latencies = [t for p in untraced for t in job_latencies(p, cal)]
    tail_s, percentile, samples = tail(latencies)
    raw = [job[2] for p in untraced for job in p["jobs"]]
    print(f"passes: {len(untraced)}; job latency samples: {samples}; "
          f"job_tail_s is p{percentile:.1f} (nearest rank, {samples} samples)")
    print(f"as measured: setup_s {statistics.median(raw_setups):.6g} s, "
          f"wall_s {statistics.median(p['wall_s'] for p in untraced):.6g} s, "
          f"job_p50_s {statistics.median(raw):.6g} s, job_tail_s {tail(raw)[0]:.6g} s; "
          f"calibration median {statistics.median(cal):.6g} s (reference {calibrate.CAL_REFERENCE_S} s, "
          f"{len(cal)} calibrations)")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(pass_wall(p, cal) for p in untraced),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_s,
        "peak_rss_mb": record["peak_rss_kb"] / 1024,
    }


def per_layer(record: dict) -> dict[str, float]:
    traced = [p for p in record["passes"] if p["traced"]]
    untraced = [p for p in record["passes"] if not p["traced"]]
    metrics = dict(record["layers"])
    metrics["cli.output_bytes"] = statistics.mean(p["output_bytes"] for p in traced)
    cal = record["cal_s"]
    metrics["trace.overhead_ratio"] = (statistics.median(pass_wall(p, cal) for p in traced)
                                       / statistics.median(pass_wall(p, cal) for p in untraced))
    metrics["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
    return metrics


def report_predictions(workload: str, metrics: dict) -> None:
    with open(os.path.join(HERE, "predictions.json"), encoding="utf-8") as handle:
        checks = json.load(handle)["checks"]
    for check in checks:
        if workload not in check["workloads"]:
            continue
        names = [m for m in metrics if m.startswith(check["prefix"]) and m.endswith(tuple(check["suffixes"]))]
        if "share_of_wall_at_least" in check:
            share = sum(metrics[m] for m in names) / metrics["trace.wall_s"]
            holds = share >= check["share_of_wall_at_least"]
            seen = f"share {share:.3f}"
        else:
            nonzero = [m for m in names if metrics[m] != 0]
            holds = len(nonzero) == (len(names) if check["nonzero"] else 0)
            seen = f"non-zero: {', '.join(nonzero) or 'none'}"
        print(f"prediction {'holds' if holds else 'FAILS'}: {check['what']} ({seen})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
        oracle.check_fixture(FIXTURE)
        jobs = workloads.generate(args.workload, args.seed)
        probes = []
        if not args.trace:
            probes = [run_worker(args.workload, args.seed, "setup", timeout=60) for _ in range(SETUP_PROBES)]
        record = run_worker(args.workload, args.seed, str(args.seconds), str(args.trace),
                            timeout=WORKER_TIMEOUT_S)
    except (OSError, ValueError, KeyError, BenchmarkError, oracle.Mismatch) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    probes.append({"setup_s": record["setup_s"], "cal_s": record["cal_s"][0]})
    raw_setups = [probe["setup_s"] for probe in probes]
    setups = [calibrate.scale(probe["setup_s"], probe["cal_s"]) for probe in probes]
    attempted, failed, answers, notes = verify(jobs, record)
    correct = failed == 0
    digest = answers_digest(answers)
    with open(os.path.join(HERE, "answers.json"), encoding="utf-8") as handle:
        recorded = json.load(handle)
    if args.seed == workloads.DEFAULT_SEED and recorded.get(args.workload) != digest:
        notes.append(f"answers digest {digest} differs from the recorded {recorded.get(args.workload)}")
        correct = False
    for note in list(dict.fromkeys(notes))[:20]:
        print(f"FAILED {note}")
    values = per_layer(record) if args.trace else end_to_end(record, setups, raw_setups)
    if args.trace:
        report_predictions(args.workload, values)
    print("run record: " + json.dumps(run_record()))
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs per pass, "
          f"answers digest {digest}")
    print(f"fail_ratio = {failed / attempted:.6f} ({failed} of {attempted} job runs failed)")
    metrics = {}
    for item in declared:
        value = values[item["name"]]
        if not math.isfinite(value):
            print(f"benchmark error: {item['name']} is {value}", file=sys.stderr)
            return 1
        metrics[item["name"]] = {"value": value, "unit": item["unit"]}
        print(f"{item['name']} = {value:.6g} {item['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
