"""Summary statistics the benchmark reports.

Timings are summarised as a median plus one tail percentile.  The tail
follows one rule: report a percentile only when at least
:data:`MIN_BEYOND` samples lie beyond it, so a p99 needs 1000 samples.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: The percentiles a tail may be reported at, lowest first.
LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """The nearest-rank *pct* percentile of *samples*."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of *count* samples lie beyond the nearest-rank *pct*."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def tail_percentile(
    samples: Sequence[float], ladder: Iterable[float] = LADDER
) -> tuple[float, float, int] | None:
    """``(pct, value, sample count)`` for the highest *ladder*
    percentile with at least :data:`MIN_BEYOND` samples beyond it, or
    None when even the lowest rung lacks them."""
    count = len(samples)
    best = None
    for pct in ladder:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            best = pct
    if best is None:
        return None
    return best, percentile(samples, best), count


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def union_length(
    intervals: Iterable[tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of *intervals*, clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if end > lo and start < hi
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
