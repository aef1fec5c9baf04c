"""Summary-statistic helpers shared by analyses, experiments, and benches.

numpy is imported inside the helpers that use it, so importing this
module does not load numpy.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    if not len(values):
        raise ValueError("mean of empty sequence")
    import numpy as np

    return float(np.mean(values))


def median(values: Sequence[float]) -> float:
    if not len(values):
        raise ValueError("median of empty sequence")
    import numpy as np

    return float(np.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    if not len(values):
        raise ValueError("percentile of empty sequence")
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    import numpy as np

    return float(np.percentile(values, q))


def cdf(values: Sequence[float]) -> Tuple[List[float], List[float]]:
    """Empirical CDF: returns (sorted values, cumulative fractions)."""
    if not len(values):
        raise ValueError("cdf of empty sequence")
    ordered = sorted(float(v) for v in values)
    n = len(ordered)
    fractions = [(index + 1) / n for index in range(n)]
    return ordered, fractions


def fraction_below(values: Sequence[float], threshold: float) -> float:
    """Fraction of values strictly below ``threshold``."""
    if not len(values):
        raise ValueError("fraction_below of empty sequence")
    return sum(1 for v in values if v < threshold) / len(values)


def histogram(
    values: Sequence[float],
    bins: int = 20,
    range_: Tuple[float, float] | None = None,
) -> Tuple[List[float], List[float]]:
    """Relative-frequency histogram: (bin edges, frequencies summing to 1)."""
    if not len(values):
        raise ValueError("histogram of empty sequence")
    import numpy as np

    counts, edges = np.histogram(values, bins=bins, range=range_)
    total = counts.sum()
    freqs = (counts / total) if total else counts.astype(float)
    return [float(e) for e in edges], [float(f) for f in freqs]


def speedup(baseline: float, improved: float) -> float:
    """Relative improvement: (baseline - improved) / baseline.

    Matches the paper's "Speedup w.r.t HDFS" columns: Ignem at 12.7s vs
    HDFS at 14.4s is a 0.12 (12%) speedup.
    """
    if baseline <= 0:
        raise ValueError(f"baseline must be positive, got {baseline}")
    return (baseline - improved) / baseline


def speedup_factor(baseline: float, improved: float) -> float:
    """Multiplicative factor: how many times faster (e.g. '160x')."""
    if improved <= 0:
        raise ValueError(f"improved must be positive, got {improved}")
    return baseline / improved
