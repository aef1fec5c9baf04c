"""Shared queues for simulation processes: :class:`Store` and
:class:`PriorityStore` hold items processes can put to and get from."""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, List, Optional

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Environment


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.item = item
        store._do_put(self)


class StoreGet(Event):
    __slots__ = ("filter",)

    def __init__(self, store: "Store", filter: Optional[Callable[[Any], bool]] = None):
        super().__init__(store.env)
        self.filter = filter
        store._do_get(self)


class Store:
    """An unbounded-or-bounded FIFO queue of arbitrary items."""

    def __init__(self, env: "Environment", capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.items: list = []
        self._getters: List[StoreGet] = []
        self._putters: List[StorePut] = []

    def put(self, item: Any) -> StorePut:
        """Queue ``item``; yield the event to wait for space if bounded."""
        return StorePut(self, item)

    def put_nowait(self, item: Any) -> None:
        """Insert ``item`` without allocating a put event.

        For callers that do not wait on the put: on an unbounded store a
        ``StorePut`` always succeeds instantly, so the event would only
        burn a kernel cycle.  Waiting getters are served exactly as a
        ``put`` would serve them.  Raises ``RuntimeError`` if the store
        is full (use ``put`` to wait for space instead).
        """
        if self._size() >= self.capacity:
            raise RuntimeError("store is full; use put() to wait for space")
        self._insert(item)
        self._serve_getters()

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Take the next (matching) item; yield the event to wait for one."""
        return StoreGet(self, filter)

    def _size(self) -> int:
        """Live item count (capacity accounting); subclasses may keep
        dead entries in ``items`` that must not count against capacity."""
        return len(self.items)

    def _do_put(self, event: StorePut) -> None:
        if self._size() < self.capacity:
            self._insert(event.item)
            event.succeed()
            self._serve_getters()
        else:
            self._putters.append(event)

    def _do_get(self, event: StoreGet) -> None:
        self._getters.append(event)
        self._serve_getters()
        self._serve_putters()

    def _insert(self, item: Any) -> None:
        self.items.append(item)

    def _next_index(self, filter: Optional[Callable[[Any], bool]]) -> Optional[int]:
        if filter is None:
            return 0 if self.items else None
        for index, item in enumerate(self.items):
            if filter(item):
                return index
        return None

    def _serve_getters(self) -> None:
        remaining = []
        for getter in self._getters:
            if getter.triggered:
                continue
            index = self._next_index(getter.filter)
            if index is None:
                remaining.append(getter)
            else:
                getter.succeed(self.items.pop(index))
        self._getters = remaining

    def _serve_putters(self) -> None:
        while self._putters and self._size() < self.capacity:
            putter = self._putters.pop(0)
            self._insert(putter.item)
            putter.succeed()
            self._serve_getters()


class PriorityItem:
    """Wrapper giving items an explicit priority (lower = earlier)."""

    __slots__ = ("priority", "item")

    def __init__(self, priority: Any, item: Any):
        self.priority = priority
        self.item = item

    def __lt__(self, other: "PriorityItem") -> bool:
        return self.priority < other.priority

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PriorityItem):
            return NotImplemented
        return self.priority == other.priority and self.item == other.item

    def __repr__(self) -> str:
        return f"PriorityItem({self.priority!r}, {self.item!r})"


class _StableEntry:
    """Heap entry giving mutually-incomparable-but-equal-priority items a
    first-in-first-out tie-break.

    Plain ``(item, seq)`` tuples only fall through to ``seq`` when the
    items compare *equal* with ``==``; two :class:`PriorityItem` objects
    with the same priority but different payloads are unordered instead,
    letting the heap emit them in arbitrary order.  This wrapper compares
    by the item's ordering first and insertion sequence on genuine ties.
    """

    __slots__ = ("item", "seq", "alive")

    def __init__(self, item: Any, seq: int):
        self.item = item
        self.seq = seq
        #: Lazy-cancellation flag: dead entries stay in the heap (so no
        #: O(n) re-heapify per removal) and are skipped or compacted away.
        self.alive = True

    def __lt__(self, other: "_StableEntry") -> bool:
        if self.item < other.item:
            return True
        if other.item < self.item:
            return False
        return self.seq < other.seq


class PriorityStore(Store):
    """A :class:`Store` that releases the smallest item first.

    Items must be mutually comparable; use :class:`PriorityItem` to attach
    explicit priorities.  Insertion order breaks ties (stable heap via a
    monotonically increasing sequence number).
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")):
        super().__init__(env, capacity)
        self._seq = 0
        #: Count of tombstoned (lazily-cancelled) heap entries.
        self._dead = 0

    def _size(self) -> int:
        return len(self.items) - self._dead

    def _insert(self, item: Any) -> None:
        self._seq += 1
        heapq.heappush(self.items, _StableEntry(item, self._seq))

    def _next_index(self, filter: Optional[Callable[[Any], bool]]) -> Optional[int]:
        if filter is None:
            return 0 if self._size() else None
        for index, entry in enumerate(self.items):
            if entry.alive and filter(entry.item):
                return index
        return None

    def _serve_getters(self) -> None:
        items = self.items
        remaining = []
        for getter in self._getters:
            if getter.triggered:
                continue
            # Dead entries surface at the top like any other; drop them
            # before picking so index 0 always names a live minimum.
            while items and not items[0].alive:
                heapq.heappop(items)
                self._dead -= 1
            index = self._next_index(getter.filter)
            if index is None:
                remaining.append(getter)
            elif index == 0:
                entry = heapq.heappop(items)
                getter.succeed(entry.item)
            else:
                # A filtered match below the top: tombstone it in place
                # (the old pop-and-reheapify was O(n) per filtered get).
                entry = items[index]
                entry.alive = False
                self._dead += 1
                getter.succeed(entry.item)
        self._getters = remaining
        self._maybe_compact()

    def remove(self, predicate: Callable[[Any], bool]) -> list:
        """Remove and return all queued items matching ``predicate``.

        Removal is lazy: matching entries are tombstoned in place, and the
        heap is rebuilt only when dead entries outnumber live ones —
        without this, long runs with heavy cancellation (job teardown,
        slave purges) grow the heap without bound.
        """
        removed = []
        dead = self._dead
        for entry in self.items:
            if entry.alive and predicate(entry.item):
                entry.alive = False
                dead += 1
                removed.append(entry.item)
        self._dead = dead
        if removed:
            self._maybe_compact()
        return removed

    def _maybe_compact(self) -> None:
        """Rebuild the heap once dead entries exceed half of it."""
        if self._dead * 2 > len(self.items):
            self.items = [entry for entry in self.items if entry.alive]
            heapq.heapify(self.items)
            self._dead = 0
