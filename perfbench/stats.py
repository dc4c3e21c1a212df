"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import math

TAIL_PERCENTILES = (99.0, 90.0, 75.0, 50.0)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must lie in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float | None:
    """Highest of TAIL_PERCENTILES that leaves at least ten of n samples
    above its nearest rank, or None when even the median does not."""
    for q in TAIL_PERCENTILES:
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q
    return None
