"""Arithmetic of the benchmark: percentiles, host-speed scaling, self time of
spans, failure shares and run-to-run spread.  Pure functions, tested in
test_stats.py."""

from __future__ import annotations

import bisect
import math
import statistics
from typing import Sequence

# A tail percentile is reported only when at least this many samples lie
# strictly above it; otherwise it is one or two slow ops, not a percentile.
# Percentiles are given in permille, so that ranks are exact integer
# arithmetic (0.9 * 100 is 90.00000000000001 in floating point).
MIN_BEYOND = 10


def rank(n: int, permille: int) -> int:
    """1-based nearest rank of the permille-th percentile of n samples."""
    if n < 1:
        raise ValueError("percentile of no samples")
    return max(1, -(-permille * n // 1000))


def samples_beyond(n: int, permille: int) -> int:
    """How many of n samples lie above the nearest-rank percentile."""
    return n - rank(n, permille)


def percentile(sorted_values: Sequence[float], permille: int) -> float:
    """Nearest-rank percentile of an ascending sequence: always a sample."""
    return sorted_values[rank(len(sorted_values), permille) - 1]


def local_scale(
    n_ops: int, at: Sequence[int], slice_ms: Sequence[float], nominal_ms: float, half_window: int
) -> list[float]:
    """Per op, the factor that turns its measured time into nominal host time.

    Reference slice k ran just before op ``at[k]`` (``at[k] == n_ops`` after
    the last op), and ``at`` is ascending.  Op i is scaled by nominal_ms over
    the median of the half_window slices before it and the half_window after.
    """
    if len(at) != len(slice_ms) or list(at) != sorted(at):
        raise ValueError("slice positions must be ascending, one per slice")
    scales = []
    for i in range(n_ops):
        j = bisect.bisect_right(at, i)  # slices that ran before op i
        if j < half_window or len(at) - j < half_window:
            raise ValueError(f"op {i} lacks {half_window} reference slices on a side")
        scales.append(nominal_ms / statistics.median(slice_ms[j - half_window : j + half_window]))
    return scales


def failed_frac(attempted: int, failed: int) -> float:
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError(f"bad op counts: {failed} failed of {attempted}")
    return failed / attempted


def completed_frac(attempted: int, failed: int) -> float:
    return 1.0 - failed_frac(attempted, failed)


def self_times(
    parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]
) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans are listed in start order and a parent id is the index of an
    earlier span, or -1 for a root.  Child intervals are clipped to the
    parent and overlaps between children are counted once.
    """
    n = len(starts)
    covered = [0.0] * n
    reach = [-math.inf] * n  # per parent: end of the union of its children so far
    for i in range(n):
        p = parents[i]
        if p < 0:
            continue
        if not 0 <= p < i or starts[i] < starts[p]:
            raise ValueError(f"span {i} is not listed after its parent {p}")
        lo = max(starts[i], starts[p], reach[p])
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
        reach[p] = max(reach[p], hi)
    return [ends[i] - starts[i] - covered[i] for i in range(n)]


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
