"""The migration queue of an Ignem slave: :class:`PriorityStore`."""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment


class PriorityStore:
    """An unbounded queue that releases the smallest priority first.

    Items wait in a heap of ``(priority, insertion_seq, item)`` tuples,
    so equal priorities leave in insertion order and items themselves are
    never compared.  A put while a getter is parked hands the item
    straight to that getter, whatever its priority: the store is empty
    whenever a getter waits, so the item is the smallest there is.
    """

    def __init__(self, env: "Environment"):
        self.env = env
        self._heap: list = []
        self._seq = 0
        self._getters: deque = deque()

    def put_nowait(self, priority: Any, item: Any) -> None:
        """Queue ``item`` at ``priority`` (lower leaves earlier)."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return
        self._seq += 1
        heappush(self._heap, (priority, self._seq, item))

    def get(self) -> Event:
        """An event whose value is the next item; yield it to wait."""
        event = Event(self.env)
        if self._heap:
            event.succeed(heappop(self._heap)[2])
        else:
            self._getters.append(event)
        return event

    def clear(self) -> None:
        """Drop every queued item; parked getters stay parked."""
        self._heap.clear()

    def __len__(self) -> int:
        return len(self._heap)
