"""Order statistics used to summarise timings."""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Candidate percentiles, highest last.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def highest_percentile(n: int, beyond: int = 10) -> Optional[float]:
    """The highest candidate percentile with at least `beyond` of `n`
    samples above it, or None when even the median has too few."""
    best = None
    for p in PERCENTILES:
        # integer arithmetic, so 1000 samples leave exactly 10 beyond p99
        if n * (1000 - round(p * 10)) >= beyond * 1000:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]
