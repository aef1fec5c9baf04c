"""OS buffer-cache model with pinning (the mmap/mlock substrate).

Ignem's slaves migrate blocks by mmap+mlock-ing the block files so the
data lands in the OS buffer cache, pinned against page-out (paper Section
III-B1).  This module models that cache per server:

* entries are keyed by arbitrary hashable keys (block IDs) with a byte
  size;
* *pinned* entries (mlock) can never be evicted until unpinned (munmap);
* unpinned entries are evicted LRU when capacity is exceeded;
* dirty bytes from absorbed writes are flushed to the backing device in
  the background, contending with foreground reads exactly as real
  write-back does.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional, Set

from ..sim.engine import Environment
from .device import MB, TransferDevice

#: Granularity of background write-back transfers, in bytes.
FLUSH_CHUNK = 64 * MB


class CacheEntry:
    """One resident object in the buffer cache."""

    __slots__ = ("key", "nbytes", "pinned", "cached_at")

    def __init__(self, key: Hashable, nbytes: float, pinned: bool, now: float):
        self.key = key
        self.nbytes = float(nbytes)
        self.pinned = pinned
        self.cached_at = now


class BufferCache:
    """A per-server page cache with mlock-style pinning.

    Parameters
    ----------
    env:
        Simulation environment.
    capacity:
        Cache capacity in bytes (the server's usable RAM).
    flush_device:
        Backing device that absorbs write-back traffic.  ``None`` disables
        write-back modeling (writes still count as cached bytes).
    """

    def __init__(
        self,
        env: Environment,
        capacity: float,
        flush_device: Optional[TransferDevice] = None,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.env = env
        self.capacity = float(capacity)
        self.flush_device = flush_device

        self._entries: "OrderedDict[Hashable, CacheEntry]" = OrderedDict()
        self._used = 0.0
        self._pinned_bytes = 0.0
        self._dirty_bytes = 0.0
        self._flusher_running = False

        #: Residency-delta hook: called with ``(key, resident)`` whenever a
        #: key becomes resident or stops being resident (including LRU
        #: evictions and flush_all).  Feeds the memory-locality index.
        self.on_residency_change: Optional[Callable[[Hashable, bool], None]] = None
        #: Trace hook ``(op, key, nbytes) -> None`` with op "insert" or
        #: "evict"; ``None`` is the zero-overhead clean path (set by the
        #: observability layer when storage tracing is enabled).
        self.on_event: Optional[Callable[[str, Hashable, float], None]] = None

        # Counters for tests/metrics.
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- queries --------------------------------------------------------------

    @property
    def used_bytes(self) -> float:
        return self._used

    @property
    def pinned_bytes(self) -> float:
        return self._pinned_bytes

    @property
    def dirty_bytes(self) -> float:
        return self._dirty_bytes

    @property
    def free_bytes(self) -> float:
        return self.capacity - self._used

    def contains(self, key: Hashable) -> bool:
        """Whether ``key`` is resident (counts a hit/miss and touches LRU)."""
        if key in self._entries:
            self.hits += 1
            self._entries.move_to_end(key)
            return True
        self.misses += 1
        return False

    def peek(self, key: Hashable) -> bool:
        """Residency check without touching LRU order or counters."""
        return key in self._entries

    def is_pinned(self, key: Hashable) -> bool:
        entry = self._entries.get(key)
        return entry is not None and entry.pinned

    def resident_keys(self) -> Set[Hashable]:
        return set(self._entries.keys())

    # -- mutation ---------------------------------------------------------------

    def insert(self, key: Hashable, nbytes: float, pinned: bool = False) -> bool:
        """Make ``key`` resident, evicting LRU unpinned entries if needed.

        Returns ``False`` (and caches nothing) if even after evicting every
        unpinned entry the object would not fit — e.g. trying to pin more
        than the whole cache.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        existing = self._entries.get(key)
        if existing is not None:
            self._entries.move_to_end(key)
            if pinned and not existing.pinned:
                existing.pinned = True
                self._pinned_bytes += existing.nbytes
            return True

        if not self._make_room(nbytes):
            return False
        entry = CacheEntry(key, nbytes, pinned, self.env.now)
        self._entries[key] = entry
        self._used += nbytes
        if pinned:
            self._pinned_bytes += nbytes
        callback = self.on_residency_change
        if callback is not None:
            callback(key, True)
        if self.on_event is not None:
            self.on_event("insert", key, nbytes)
        return True

    def pin(self, key: Hashable) -> bool:
        """mlock an already-resident entry; returns ``False`` if absent."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        if not entry.pinned:
            entry.pinned = True
            self._pinned_bytes += entry.nbytes
        return True

    def unpin(self, key: Hashable) -> bool:
        """munmap: make the entry evictable again."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        if entry.pinned:
            entry.pinned = False
            self._pinned_bytes -= entry.nbytes
        return True

    def evict(self, key: Hashable) -> bool:
        """Drop ``key`` immediately (pinned entries are unpinned first)."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return False
        if entry.pinned:
            self._pinned_bytes -= entry.nbytes
        self._used -= entry.nbytes
        if not self._entries:
            # Snap float residue from fractional entry sizes to zero.
            self._used = 0.0
            self._pinned_bytes = 0.0
        self.evictions += 1
        callback = self.on_residency_change
        if callback is not None:
            callback(key, False)
        if self.on_event is not None:
            self.on_event("evict", key, entry.nbytes)
        return True

    def flush_all(self) -> None:
        """Drop every entry (the experiment-setup 'echo 3 > drop_caches')."""
        for key in list(self._entries.keys()):
            self.evict(key)
        self._dirty_bytes = 0.0

    def write_absorb(self, key: Hashable, nbytes: float) -> None:
        """Absorb a write: bytes land in cache dirty and flush in background.

        The write itself completes at memory speed (the caller does not
        wait); the dirty bytes are trickled to ``flush_device`` by the
        background flusher, generating realistic disk contention.
        """
        self.insert(key, nbytes, pinned=False)
        if self.flush_device is None:
            return
        self._dirty_bytes += nbytes
        if not self._flusher_running:
            self._flusher_running = True
            self.env.process(self._flush_loop(), name="buffer-cache-flusher")

    # -- internals ---------------------------------------------------------------

    def _make_room(self, nbytes: float) -> bool:
        if nbytes > self.capacity - self._pinned_bytes:
            return False
        while self._used + nbytes > self.capacity:
            victim = self._lru_unpinned()
            if victim is None:
                return False
            self.evict(victim)
        return True

    def _lru_unpinned(self) -> Optional[Hashable]:
        for key, entry in self._entries.items():
            if not entry.pinned:
                return key
        return None

    def _flush_loop(self):
        while self._dirty_bytes > 0:
            chunk = min(FLUSH_CHUNK, self._dirty_bytes)
            try:
                yield self.flush_device.transfer(chunk, tag="write-back")
            except Exception:
                # The backing device died mid-flush (host failure): the
                # dirty pages are gone with the process.
                self._dirty_bytes = 0.0
                break
            self._dirty_bytes -= chunk
        self._flusher_running = False

    def __repr__(self) -> str:
        return (
            f"<BufferCache used={self._used / MB:.0f}MB/"
            f"{self.capacity / MB:.0f}MB pinned={self._pinned_bytes / MB:.0f}MB "
            f"dirty={self._dirty_bytes / MB:.0f}MB>"
        )
