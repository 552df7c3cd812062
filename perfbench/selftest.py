"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

They run a handful of small jobs in-process; nothing here is timed.
"""

from __future__ import annotations

import os
import sys
import unittest
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402
import harness  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# useries --n 3 --k0 7/3 --c 5/2 --order 1500 --method closed raises ValueError
# (int-to-str digit limit in format_rational) instead of exiting 1.
KNOWN_FAILING = {
    "kind": "cli",
    "argv": ["useries", "--n", "3", "--k0", "7/3", "--c", "5/2", "--order", "1500", "--method", "closed"],
    "check": "useries",
    "spec": {"n": 3, "k0": "7/3", "c": "5/2", "order": 1500, "format": "table"},
}


def small_jobs() -> list[dict]:
    return [
        workloads._scan_job(2, [Fraction(3)], 50, "table", grid=False),
        workloads._scan_job(3, [Fraction(1), Fraction(5, 2)], 50, "csv", grid=True),
        workloads._lib("psd_check", [[[2, 1], [1, 2]]], "psd", psd=True),
    ]


def measure(jobs: list[dict], passes: int = 1) -> dict:
    prepared = [worker.prepare(job) for job in jobs]
    texts: dict = {}
    return {"passes": [harness.run_pass(prepared, texts) for _ in range(passes)], "texts": texts}


class Generation(unittest.TestCase):
    def test_same_seed_same_jobs_other_seed_other_jobs(self):
        for name in workloads.GENERATORS:
            with self.subTest(workload=name):
                self.assertEqual(workloads.generate(name, 7), workloads.generate(name, 7))
                self.assertNotEqual(workloads.generate(name, 7), workloads.generate(name, 8))

    def test_oracle_reproduces_the_frozen_witnesses(self):
        oracle.check_fixture(run.FIXTURE)


class Verification(unittest.TestCase):
    def test_clean_run_has_no_failures(self):
        jobs = small_jobs()
        attempted, failed, answers, _ = run.verify(jobs, measure(jobs, passes=2))
        self.assertEqual((attempted, failed), (6, 0))
        self.assertNotIn(None, answers)

    def test_corrupted_answer_raises_fail_ratio(self):
        jobs = small_jobs()
        record = measure(jobs)
        ((digest, text),) = record["texts"]["0"].items()
        self.assertIn("min_negative_r = 8", text)
        record["texts"]["0"] = {digest: text.replace("min_negative_r = 8", "min_negative_r = 9")}
        attempted, failed, _, notes = run.verify(jobs, record)
        self.assertEqual((attempted, failed), (3, 1))
        self.assertIn("witness", notes[0])

    def test_answer_that_changes_between_passes_fails(self):
        jobs = small_jobs()
        record = measure(jobs, passes=2)
        record["passes"][1]["jobs"][2][3] = "0" * 64
        record["texts"]["2"]["0" * 64] = '"not-PSD"'
        _, failed, answers, _ = run.verify(jobs, record)
        self.assertEqual(failed, 2)
        self.assertIsNone(answers[2])

    def test_failing_job_is_counted_once_and_the_run_continues(self):
        jobs = small_jobs()
        jobs.insert(1, KNOWN_FAILING)
        record = measure(jobs, passes=2)
        statuses = [status for _, status, _, _ in record["passes"][0]["jobs"]]
        self.assertTrue(statuses[1].startswith("ValueError"), statuses[1])
        self.assertEqual([statuses[0]] + statuses[2:], [0, 0, 0])
        attempted, failed, _, _ = run.verify(jobs, record)
        self.assertEqual((attempted, failed), (8, 2))


class Calibration(unittest.TestCase):
    def test_every_job_and_pass_is_bracketed_by_two_calibrations(self):
        jobs = small_jobs()
        record = harness.measure([worker.prepare(job) for job in jobs], 0.0, traced=False)
        cal = record["cal_s"]
        self.assertGreaterEqual(len(cal), len(record["passes"]) + 1)
        for run_ in record["passes"]:
            self.assertEqual(len(run_["cal"]), len(run_["jobs"]))
            self.assertLess(run_["cal"][-1] + 1, len(cal))
            self.assertGreater(run.pass_wall(run_, cal), 0)
            self.assertEqual(len(run.job_latencies(run_, cal)), len(jobs))

    def test_scaling_is_proportional_to_time_and_inverse_to_calibration(self):
        reference = calibrate.CAL_REFERENCE_S
        self.assertAlmostEqual(calibrate.scale(2.0, reference), 2.0)
        self.assertAlmostEqual(calibrate.scale(2.0, 2 * reference), 1.0)


class Tracing(unittest.TestCase):
    def test_traced_answers_equal_untraced_and_wrappers_are_removed(self):
        jobs = small_jobs()
        prepared = [worker.prepare(job) for job in jobs]
        original = worker.calabi_bell.inequality.min_negative_r
        record = harness.measure(prepared, 0.0, traced=True)
        self.assertIs(worker.calabi_bell.inequality.min_negative_r, original)
        self.assertEqual([p["traced"] for p in record["passes"]][:2], [False, True])
        _, failed, _, _ = run.verify(jobs, record)
        self.assertEqual(failed, 0)
        layers = record["layers"]
        self.assertEqual(layers["inequality.scans"], 3)
        rows = sum(len(oracle.alternating_sums(n, q, 50, True)) for n, q in ((2, 3), (3, 1), (3, Fraction(5, 2))))
        self.assertEqual(layers["inequality.rows"], rows)
        self.assertGreater(layers["bell.extend_s"], 0)
        self.assertGreater(layers["inequality.grid_parallelism"], 0)

    def test_tail_is_the_highest_percentile_with_ten_samples_above(self):
        value, percentile, samples = run.tail([float(i) for i in range(1, 101)])
        self.assertEqual((value, percentile, samples), (90.0, 90.0, 100))


if __name__ == "__main__":
    unittest.main()
