"""Disk-utilization analysis (paper Section II-C1, Figure 4).

The paper derives per-server disk utilization from the Google trace by
assuming each task's reported IO time is uniformly distributed over its
reporting interval, computing utilization at 1-second granularity, and
averaging over 5-minute windows.  This module implements exactly that
computation over :class:`TaskUsageInterval` rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..workloads.google_trace import TaskUsageInterval


@dataclass(frozen=True)
class UtilizationTimeline:
    """Windowed utilization series for one server (or a mean of servers)."""

    window: float
    times: Tuple[float, ...]
    utilization: Tuple[float, ...]

    @property
    def mean(self) -> float:
        if not self.utilization:
            raise ValueError("empty timeline")
        import numpy as np

        return float(np.mean(self.utilization))

    @property
    def peak(self) -> float:
        if not self.utilization:
            raise ValueError("empty timeline")
        import numpy as np

        return float(np.max(self.utilization))


def server_utilization(
    intervals: Sequence[TaskUsageInterval],
    duration: float,
    window: float = 300.0,
    resolution: float = 1.0,
) -> Dict[int, UtilizationTimeline]:
    """Per-server utilization timelines via the paper's method."""
    if duration <= 0 or window <= 0 or resolution <= 0:
        raise ValueError("duration, window, and resolution must be positive")
    import numpy as np

    num_ticks = int(round(duration / resolution))
    per_server: Dict[int, np.ndarray] = {}

    for row in intervals:
        ticks = per_server.setdefault(
            row.server, np.zeros(num_ticks, dtype=float)
        )
        lo = int(row.start / resolution)
        hi = min(num_ticks, int(round(row.end / resolution)))
        if hi <= lo:
            continue
        # Uniform-distribution assumption: the task contributes an equal
        # share of its IO time to every second of its interval.
        ticks[lo:hi] += row.io_time / (hi - lo) / resolution

    ticks_per_window = max(1, int(round(window / resolution)))
    timelines: Dict[int, UtilizationTimeline] = {}
    for server, ticks in per_server.items():
        ticks = np.clip(ticks, 0.0, 1.0)
        usable = (len(ticks) // ticks_per_window) * ticks_per_window
        windowed = ticks[:usable].reshape(-1, ticks_per_window).mean(axis=1)
        times = tuple(
            (index + 1) * window for index in range(len(windowed))
        )
        timelines[server] = UtilizationTimeline(
            window=window, times=times, utilization=tuple(float(v) for v in windowed)
        )
    return timelines


def mean_utilization_timeline(
    timelines: Dict[int, UtilizationTimeline]
) -> UtilizationTimeline:
    """The Fig 4 'mean of N servers' curve."""
    if not timelines:
        raise ValueError("no timelines")
    import numpy as np

    series = [np.asarray(t.utilization) for t in timelines.values()]
    length = min(len(s) for s in series)
    stacked = np.stack([s[:length] for s in series])
    mean = stacked.mean(axis=0)
    first = next(iter(timelines.values()))
    return UtilizationTimeline(
        window=first.window,
        times=first.times[:length],
        utilization=tuple(float(v) for v in mean),
    )


def overall_mean_utilization(timelines: Dict[int, UtilizationTimeline]) -> float:
    """Grand mean over all servers and windows (the paper's 3.1%)."""
    if not timelines:
        raise ValueError("no timelines")
    values: List[float] = []
    for timeline in timelines.values():
        values.extend(timeline.utilization)
    import numpy as np

    return float(np.mean(values))
