"""Span recorder for the benchmark's traced run.

``install`` wraps the public calabi_bell functions at each layer seam,
from outside the package: every module-level binding of a function is
replaced (so ``diastasis.h_values``, ``cli.min_negative_r`` and
``inequality.normalized_term`` are all traced, not only the defining
module's name), and methods are replaced on their class. The returned
callable puts every original back; the untraced passes run without any
wrapper installed.

A span is ``[name, start, end, parent]``. Spans opened on a thread that
has no open span of its own (the pool threads of ``scan_grid``) take the
innermost span that adopts threads as their parent. After each job the
spans are folded into per-name self time (the span minus the union of
its children) and call counts, and then dropped. Counts and big-integer
bit lengths are recorded at the same boundaries; bit lengths are read
after the job ends, so reading them adds no time to any span.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict
from fractions import Fraction

_MISSING = object()


def bits(value: Fraction) -> int:
    value = Fraction(value)
    return max(value.numerator.bit_length(), value.denominator.bit_length())


class Recorder:
    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []
        self.adopter: int | None = None
        self.self_time: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self.terms: set = set()
        self.grid_span_s = 0.0
        self.grid_child_s = 0.0
        self._deferred: list = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        span = [name, 0.0, None, stack[-1] if stack else self.adopter]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[1] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(self.spans[i][0] == name for i in self._stack())

    # Pool threads of scan_grid record concurrently, hence the lock.
    def count(self, key: str, amount: int) -> None:
        with self._lock:
            self.counts[key] += amount

    def distinct(self, item: tuple) -> None:
        with self._lock:
            self.terms.add(item)

    def peak(self, key: str, value: int) -> None:
        with self._lock:
            if value > self.peaks[key]:
                self.peaks[key] = value

    def defer(self, probe) -> None:
        self._deferred.append(probe)

    def end_job(self) -> None:
        """Run the deferred probes untraced, then fold and drop the spans."""
        self.active = False
        for probe in self._deferred:
            probe()
        self._deferred.clear()
        children = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        for index, (name, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for lo, hi in sorted(children[index]):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            self.self_time[name] += (end - start) - covered
            self.calls[name] += 1
            if name == "inequality.grid":
                self.grid_span_s += end - start
                self.grid_child_s += sum(hi - lo for lo, hi in children[index])
        self.spans.clear()
        self.active = True


def wrap(rec: Recorder, name: str, fn, before=None, after=None, adopt=False):
    """``fn`` inside a span; ``before(*args)`` gives a token that is passed,
    with the result, to ``after(token, result, *args)``."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        token = before(*args, **kwargs) if before else None
        index = rec.open(name)
        if adopt:
            saved, rec.adopter = rec.adopter, index
        try:
            result = fn(*args, **kwargs)
        finally:
            if adopt:
                rec.adopter = saved
            rec.close(index)
        if after:
            after(token, result, *args, **kwargs)
        return result

    return traced


# -- hooks that record counts and bit lengths -----------------------------------


def _hooks(rec: Recorder) -> dict:
    def extend_after(old, _, table, *args, **kwargs):
        new = table.r_max
        if new <= old:
            return
        rows = range(old + 1, new + 1)
        rec.count("bell.entries_built", sum(rows))
        rec.count("bell.inner_terms", sum(r * (r - 1) // 2 for r in rows))
        rec.defer(lambda: rec.peak("bell.peak_bits", max(bits(v) for r in rows for v in table.row(r))))

    def coeffs_after(_, seq, *args, **kwargs):
        rec.defer(lambda: rec.peak("potential.coeff_peak_bits", max(bits(v) for v in seq.values)))

    def hr_after(_, values, *args, **kwargs):
        rec.count("potential.hr_computed", len(values))
        if rec.inside("diastasis.scan"):
            rec.count("diastasis.scales_computed", len(values))

    def scan_after(_, report, *args, **kwargs):
        rec.count("inequality.rows", len(report.rows))
        rec.defer(lambda: rec.peak("inequality.s_peak_bits", max(bits(s) for _, s in report.rows)))

    def term_after(_, value, *args, **kwargs):
        rec.distinct(args + tuple(kwargs.values()))

    def indices_after(_, indices, d, cutoff):
        rec.count("diastasis.indices_kept", len(indices))
        rec.count("diastasis.indices_walked", (cutoff + 1) ** d)  # tuples product() yields

    def block_scan_after(_, report, *args, **kwargs):
        rec.count("diastasis.blocks_returned", len(report.blocks))

    return {
        "bell.extend": dict(before=lambda table, *args, **kwargs: table.r_max, after=extend_after),
        "potential.closed": dict(after=coeffs_after),
        "potential.ode": dict(after=coeffs_after),
        "potential.hr": dict(after=hr_after),
        "inequality.scan": dict(after=scan_after),
        "inequality.term": dict(after=term_after),
        "inequality.grid": dict(adopt=True),
        "diastasis.indices": dict(after=indices_after),
        "diastasis.scan": dict(after=block_scan_after),
    }


# (span name, module or class path, attribute)
FUNCTIONS = (
    ("rationals.format", "rationals", "format_rational"),
    ("bell.recurrence", "bell", "partial_bell_recurrence"),
    ("bell.complete", "bell", "complete_bell"),
    ("series.exp", "series", "exp_of"),
    ("potential.closed", "potential", "u_coeffs_closed"),
    ("potential.ode", "potential", "u_coeffs_ode"),
    ("potential.crosscheck", "potential", "u_coeffs"),
    ("potential.hr", "potential", "h_values"),
    ("inequality.sum", "inequality", "alternating_bell_sum"),
    ("inequality.scan", "inequality", "min_negative_r"),
    ("inequality.grid", "inequality", "scan_grid"),
    ("inequality.term", "inequality", "normalized_term"),
    ("diastasis.indices", "diastasis", "monomial_indices"),
    ("diastasis.power_matrix", "diastasis", "fs_power_matrix"),
    ("diastasis.coeff_matrix", "diastasis", "fs_coeff_matrix"),
    ("diastasis.psd", "diastasis", "psd_check"),
    ("diastasis.scan", "diastasis", "eh_block_scan"),
    ("cli.main", "cli", "main"),
    ("cli.parse", "cli", "build_parser"),
)
METHODS = (
    ("bell.extend", "bell", "BellTable", ("extend",)),
    ("series.mul", "series", "TruncatedSeries", ("__mul__",)),
    ("potential.eval", "potential", "ClosedFormEvaluator",
     ("__init__", "u_with_residue", "u", "derivatives", "condition_report", "derivative_fd")),
    # The parser is rebuilt and re-parsed on every cli.main call.
    ("cli.parse", "cli", "_Parser", ("parse_args",)),
)


def install(rec: Recorder):
    """Wrap every traced function; returns the callable that unwraps them."""
    modules = [m for name, m in list(sys.modules.items())
               if name == "calabi_bell" or name.startswith("calabi_bell.")]
    hooks = _hooks(rec)
    undo = []
    for name, module, attr in FUNCTIONS:
        original = getattr(sys.modules[f"calabi_bell.{module}"], attr)
        traced = wrap(rec, name, original, **hooks.get(name, {}))
        for owner in modules:
            for key, value in list(vars(owner).items()):
                if value is original:
                    undo.append((owner, key, value))
                    setattr(owner, key, traced)
    for name, module, cls_name, attrs in METHODS:
        cls = getattr(sys.modules[f"calabi_bell.{module}"], cls_name)
        for attr in attrs:
            original = getattr(cls, attr)
            traced = wrap(rec, name, original, **hooks.get(name, {}))
            # Aliases such as __rmul__ = __mul__ share the function object.
            for key in [k for k, v in vars(cls).items() if v is original] or [attr]:
                undo.append((cls, key, vars(cls).get(key, _MISSING)))
                setattr(cls, key, traced)
    rec.active = True

    def uninstall() -> None:
        rec.active = False
        for owner, key, value in reversed(undo):
            if value is _MISSING:
                delattr(owner, key)
            else:
                setattr(owner, key, value)

    return uninstall


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder, passes: int) -> dict[str, float]:
    """Per-pass self times and counts, plus ratios over all traced passes."""
    t = {name: value / passes for name, value in rec.self_time.items()}
    c = {name: value / passes for name, value in rec.counts.items()}
    calls = {name: value / passes for name, value in rec.calls.items()}
    get = lambda table, key: table.get(key, 0.0)  # noqa: E731
    return {
        "rationals.format_s": get(t, "rationals.format"),
        "rationals.format_calls": get(calls, "rationals.format"),
        "bell.extend_s": get(t, "bell.extend"),
        "bell.entries_built": get(c, "bell.entries_built"),
        "bell.inner_terms": get(c, "bell.inner_terms"),
        "bell.peak_bits": float(rec.peaks["bell.peak_bits"]),
        "bell.recurrence_s": get(t, "bell.recurrence"),
        "bell.complete_s": get(t, "bell.complete"),
        "series.mul_s": get(t, "series.mul"),
        "series.mul_calls": get(calls, "series.mul"),
        "series.exp_s": get(t, "series.exp"),
        "potential.closed_s": get(t, "potential.closed"),
        "potential.ode_s": get(t, "potential.ode"),
        "potential.crosscheck_ratio": _ratio(get(t, "potential.ode"), get(t, "potential.closed")),
        "potential.hr_s": get(t, "potential.hr"),
        "potential.hr_computed": get(c, "potential.hr_computed"),
        "potential.coeff_peak_bits": float(rec.peaks["potential.coeff_peak_bits"]),
        "potential.eval_s": get(t, "potential.eval"),
        "inequality.sum_s": get(t, "inequality.sum"),
        "inequality.rows": get(c, "inequality.rows"),
        "inequality.scans": get(calls, "inequality.scan"),
        "inequality.s_peak_bits": float(rec.peaks["inequality.s_peak_bits"]),
        "inequality.term_calls": get(calls, "inequality.term"),
        # Every pass runs the same jobs, so the distinct (n, l) of one pass
        # are the distinct (n, l) of all of them.
        "inequality.term_reuse_ratio": _ratio(len(rec.terms), get(calls, "inequality.term")),
        "inequality.grid_s": get(t, "inequality.grid"),
        "inequality.grid_parallelism": _ratio(rec.grid_child_s, rec.grid_span_s),
        "diastasis.indices_s": get(t, "diastasis.indices"),
        "diastasis.index_yield_ratio": _ratio(rec.counts["diastasis.indices_kept"],
                                              rec.counts["diastasis.indices_walked"]),
        "diastasis.matrix_s": get(t, "diastasis.power_matrix") + get(t, "diastasis.coeff_matrix"),
        "diastasis.matrices_built": get(calls, "diastasis.power_matrix"),
        "diastasis.psd_s": get(t, "diastasis.psd"),
        "diastasis.scan_s": get(t, "diastasis.scan"),
        "diastasis.scale_yield_ratio": _ratio(rec.counts["diastasis.blocks_returned"],
                                              rec.counts["diastasis.scales_computed"]),
        "cli.parse_s": get(t, "cli.parse"),
        "cli.self_s": get(t, "cli.main"),
    }
