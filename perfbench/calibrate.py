"""The speed of the machine, measured next to the program.

On a shared host the same computation runs up to about 1.8 times slower
in phases that last from seconds to minutes, in CPU time as well as wall
time, and the two vCPUs of a 2-vCPU VM drift independently of each other.
A run of tens of seconds cannot average that out, so the benchmark times
a fixed pure-Python computation (``kernel``) on the measuring CPU, at the
start of every pass and between jobs, and reports each time scaled to a
nominal speed:

    reported = measured * CAL_REFERENCE_S / calibration time next to it

That is a time in seconds on this machine when it runs at the speed
``CAL_REFERENCE_S`` was taken at. The kernel imports nothing from
calabi_bell and a change to the program cannot change it; it runs with
the garbage collector off and leaves no garbage, so the program's heap
does not slow it. A program twice as slow still reads twice as slow.
"""

from __future__ import annotations

import gc
import math
import time
from fractions import Fraction

# Median calibration time on a 2-vCPU Xeon VM (KVM) with CPython 3.11.7.
CAL_REFERENCE_S = 0.008
# Kernel repeats per calibration; the calibration is the faster, so one
# preempted repeat does not count.
REPEATS = 2
# Between jobs, calibrate again once this long has passed since the last.
EVERY_S = 0.1


def kernel() -> str:
    """Two halves, as the program's work has two kinds: S(3, 7/2, r),
    r = 1..40, by the exponential-formula recurrence (small exact rationals,
    bound by the interpreter), then sums of products of rationals of about
    1,000 bits (bound by big-integer arithmetic); both printed. The program
    does the same kinds of work, in code of its own."""
    q, z, s = Fraction(7, 2), [], [Fraction(1)]
    for k in range(1, 41):
        x = Fraction(math.prod(3 * j - 1 for j in range(1, k)), k)
        z.append(q * x if k % 2 else -q * x)
        s.append(sum(math.comb(k - 1, i - 1) * z[i - 1] * s[k - i] for i in range(1, k + 1)))
    big = [Fraction(3 ** (600 + k) + k, 2 ** (300 + 7 * k) + 1) for k in range(20)]
    sums = [sum(big[i] * big[j] for j in range(i, min(i + 4, 20))) for i in range(20)]
    return ",".join(str(v) for v in s + sums)


def calibrate() -> float:
    """Seconds the kernel takes now (the fastest of ``REPEATS``)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(REPEATS):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, calibration: float) -> float:
    """``seconds`` at the reference speed, given the calibration next to it."""
    return seconds * CAL_REFERENCE_S / calibration
