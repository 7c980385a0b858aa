"""Order statistics for op timings, with failed ops ranked after every success.

A failed op has no usable result, so it misses every latency limit: it reads
as infinitely slow.  Ranking failures last keeps the percentiles monotone: a
change that turns a fast failure into a slow correct result can only lower
them.  Percentiles use the nearest-rank definition, so each reading is one
measured op time.
"""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def ranked(seconds, ok) -> list[float]:
    """Op times sorted ascending, with every failed op as +inf."""
    return sorted(t if good else math.inf for t, good in zip(seconds, ok))


def nearest_rank(values: list[float], pct: float) -> float:
    """The pct-th percentile of sorted values by nearest rank."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 < pct <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {pct!r}")
    index = max(0, math.ceil(pct / 100.0 * len(values)) - 1)
    return values[index]


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with `beyond` samples above it.

    The sample at 0-based rank n - 1 - beyond has exactly `beyond` samples
    ranked after it; its nearest-rank percentile is 100 (n - beyond) / n.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples, got {n}")
    return 100.0 * (n - beyond) / n, values[n - 1 - beyond]


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, as statistics.quantiles(n=4) gives the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
