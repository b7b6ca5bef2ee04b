"""Reference-normalised timing and the order statistics the benchmark reports.

The machine this benchmark runs on is shared, and its speed drifts by tens of
percent between runs.  Every timed operation is therefore paired with a fixed
pure-Python reference loop timed right beside it, and reported as

    normalised_ms = op_ns / ref_ns * REF_MS

where REF_MS is the reference loop's duration in ms on the machine it was
calibrated on.  Drift that slows the operation slows the loop alike and
cancels, while the figures stay in milliseconds.

This module imports nothing from ``claes``: a change to the program must not
be able to change the yardstick.
"""

from __future__ import annotations

import math
import statistics
import time

REF_ITERS = 2000
# About the duration of reference_loop() on the 2-core x86-64 box the figures
# in README.md come from (Python 3.11; 0.65 to 1.0 ms as its speed drifted).
# Fixed once and never recalibrated, so that normalised figures from
# different commits compare.
REF_MS = 0.8

_MASK64 = (1 << 64) - 1


def reference_loop() -> int:
    """A fixed amount of interpreter and big-integer work (a 64-bit LCG).

    The map arithmetic that dominates the program is the same kind of work:
    Python integers of at most 128 bits, multiplied, shifted and masked.
    """
    m = 0x2545F4914F6CDD1D
    acc = 0
    for i in range(REF_ITERS):
        m = (m * 6364136223846793005 + 1442695040888963407 + i) & _MASK64
        acc ^= (m * m) >> 71
    return acc


def time_reference() -> int:
    """Duration of one reference loop in ns."""
    t0 = time.perf_counter_ns()
    reference_loop()
    return time.perf_counter_ns() - t0


def normalise_ms(op_ns: int, ref_ns: int) -> float:
    """An operation's time in reference milliseconds."""
    if ref_ns <= 0:
        raise ValueError("reference time must be positive")
    return op_ns / ref_ns * REF_MS


# Tail percentiles in tenths of a percent, highest first.
TAIL_LADDER = (999, 990, 900, 750)
TAIL_MIN_BEYOND = 10


def _rank(n: int, p10: int) -> int:
    """Nearest-rank index (1-based) of percentile p10/10 among n samples."""
    return -(-(p10 * n) // 1000)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it.

    Below forty samples no ladder percentile qualifies and the median (50.0)
    is returned: that percentile would be no tail.
    """
    for p10 in TAIL_LADDER:
        if n - _rank(n, p10) >= TAIL_MIN_BEYOND:
            return p10 / 10
    return 50.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    p10 = round(p * 10)
    return ordered[max(_rank(len(ordered), p10), 1) - 1]


def spread(values) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, q1, q3, (q3 - q1) / mid if mid else math.inf
