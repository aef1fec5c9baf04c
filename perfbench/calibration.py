"""How fast the host runs right now, from a fixed loop.

The benchmark shares a VM with other tenants.  For seconds to minutes at
a time their load slows every process on it 1.5-1.9x, CPU time as much
as wall time, so host times taken minutes apart disagree by more than a
useful bound.  Before each member the run times :func:`loop_s`, a fixed
pure-Python event loop shaped like the simulator's (a heap of small
event objects that keep their causes alive), and multiplies the member's
host times by :func:`scale`: they then read as on the quiet host.  The
loop calls nothing in the program, so a change to the program cannot
move it.
"""

from __future__ import annotations

import heapq
from time import perf_counter

#: The loop's duration on the quiet host: the lowest decile of 1304
#: timings on a 2-vCPU Intel Xeon VM, Python 3.11.
QUIET_S = 0.0315


class _Event:
    __slots__ = ("when", "key", "cause")

    def __init__(self, when: float, key: int, cause) -> None:
        self.when = when
        self.key = key
        self.cause = cause


def loop_s() -> float:
    """Host seconds the fixed loop takes now (about 30 ms when quiet)."""
    started = perf_counter()
    heap = []
    recent = {}
    for key in range(2000):
        heapq.heappush(heap, (key * 0.37 % 50.0, key, _Event(key, key, None)))
    for key in range(2000, 32000):
        when, popped, event = heapq.heappop(heap)
        recent[popped % 3001] = event
        delay = popped * 7919 % 1000 / 100.0
        heapq.heappush(heap, (when + delay, key, _Event(when, key, event)))
    return perf_counter() - started


def scale() -> float:
    """The factor that turns host seconds measured now into quiet-host
    seconds."""
    return QUIET_S / loop_s()
