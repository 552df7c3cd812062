"""Closed-loop measurement inside a worker process.

One client runs the job list one job at a time, pass after pass, and
starts another pass only while it still fits in the run's seconds (at
least one always runs). With tracing on, passes alternate untraced /
traced and the span wrappers are installed for the traced pass only, so
the untraced passes pay nothing for them. Job latency excludes capturing
stdout; answer digests are taken after the pass, outside its wall time.

The machine's speed is calibrated (``calibrate.py``) at the start of
every pass, between jobs once ``calibrate.EVERY_S`` has passed since the
last calibration, and once after the last pass. Each job records the
index of the calibration before it, so every job and pass is bracketed
by two calibrations. Calibration time is not part of any pass's wall
time.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import time

import calibrate
import spans

# The tail percentile needs at least ten samples above it.
MIN_SAMPLES = 11


def run_job(job: tuple) -> tuple[float, object, str]:
    """(latency, status, answer text); status 0 is success, anything else
    (a non-zero exit code or an exception) is a failure of this job."""
    call, args, serialize = job
    out, err = io.StringIO(), io.StringIO()
    result = status = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            result = call(*args)
        except Exception as exc:  # a failing job is recorded and the run goes on
            status = f"{type(exc).__name__}: {str(exc)[:200]}"
        latency = time.perf_counter() - start
    if status is not None:
        return latency, status, ""
    if serialize is None:
        status = 0 if result == 0 else f"exit {result}: {err.getvalue().strip()[:200]}"
        return latency, status, out.getvalue()
    return latency, 0, json.dumps(serialize(result))


class Calibrator:
    """The calibrations of one measurement, in order."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = -float("inf")

    def sample(self) -> float:
        """Calibrate now; returns the seconds it took."""
        start = time.perf_counter()
        self.samples.append(calibrate.calibrate())
        self.last = time.perf_counter()
        return self.last - start

    def stale(self) -> bool:
        return time.perf_counter() - self.last >= calibrate.EVERY_S


def run_pass(jobs: list, texts: dict, recorder: spans.Recorder | None = None,
             calibrator: Calibrator | None = None) -> dict:
    """One pass; ``texts`` keeps each job's answer text once per digest.
    With a ``calibrator``, ``cal`` holds for each job the index of the
    calibration before it."""
    gc.collect()
    done, cal, paused = [], [], 0.0
    start = time.perf_counter()
    if calibrator is not None:
        paused += calibrator.sample()
    for job in jobs:
        if calibrator is not None:
            if calibrator.stale():
                paused += calibrator.sample()
            cal.append(len(calibrator.samples) - 1)
        done.append(run_job(job))
        if recorder is not None:
            recorder.end_job()
    wall = time.perf_counter() - start - paused
    rows, output_bytes = [], 0
    for index, (latency, status, text) in enumerate(done):
        digest = hashlib.sha256(text.encode()).hexdigest()
        texts.setdefault(str(index), {}).setdefault(digest, text)
        if jobs[index][2] is None:
            output_bytes += len(text.encode())
        rows.append([index, status, latency, digest])
    return {"traced": recorder is not None, "wall_s": wall, "jobs": rows, "cal": cal,
            "output_bytes": output_bytes}


def measure(jobs: list, seconds: float, traced: bool) -> dict:
    texts: dict = {}
    passes = []
    recorder = spans.Recorder() if traced else None
    calibrator = Calibrator()
    begin = time.perf_counter()
    while True:
        group_start = time.perf_counter()
        passes.append(run_pass(jobs, texts, calibrator=calibrator))
        if traced:
            uninstall = spans.install(recorder)
            try:
                passes.append(run_pass(jobs, texts, recorder, calibrator))
            finally:
                uninstall()
        now = time.perf_counter()
        samples = sum(len(p["jobs"]) for p in passes if not p["traced"])
        if now - begin + (now - group_start) > seconds and samples >= MIN_SAMPLES:
            break
    calibrator.sample()
    record = {
        "passes": passes,
        "texts": texts,
        "cal_s": calibrator.samples,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if traced:
        record["layers"] = spans.layer_metrics(recorder, sum(p["traced"] for p in passes))
    return record
