"""Order statistics shared by the benchmark run and the sweep."""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (0.5, 0.9, 0.99, 0.999)


def tail_quantile(samples: int) -> float:
    """The highest percentile on :data:`TAIL_LADDER` that has at least
    ten samples beyond it (1000 samples give p99, 100k give p999)."""
    if samples < 1:
        raise ValueError("no samples")
    chosen = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        # round() guards against 1000 * (1 - 0.99) reading 9.999...
        if round(samples * (1.0 - q), 6) >= 10:
            chosen = q
    return chosen


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(round(q * len(ordered), 6)))
    return ordered[min(len(ordered), rank) - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q1, median, q3)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf
