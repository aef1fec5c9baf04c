"""DataNode: block storage on one server.

Each DataNode owns an ordered :class:`~repro.storage.NodeTierSet`: a
backing store at the bottom (HDD or SSD) holding every replica, and one
:class:`~repro.storage.BufferCache`-tracked upper tier per faster medium
(the default preset has exactly one — memory — matching the paper).  The
Ignem slave (when enabled) lives inside the DataNode exactly as the
paper implements it inside the HDFS DataNode process, and hooks the read
path for implicit eviction.  A plain disk read never populates a cache:
the paper's workloads read singly-accessed cold data, and every run
starts with flushed caches.

``disk``, ``ram`` and ``cache`` are aliases for the bottom device, top
device and top cache.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set

from ..sim.engine import Environment
from ..sim.events import Event
from ..storage.buffer_cache import BufferCache
from ..storage.device import TransferDevice
from ..storage.presets import HDD_TIER, MEM_TIER
from ..storage.tiers import HDD, MEM, NodeTier, NodeTierSet, build_tier_set
from .blocks import Block


class DataNodeError(Exception):
    """Raised for invalid operations on a DataNode (e.g. reading a block
    it does not store, or any operation while the node is down)."""


class DataNode:
    """One storage server in the cluster.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Server name (also the network node name).
    cache_capacity:
        Buffer-cache capacity in bytes (the paper's servers have 128GB).
    disk_capacity:
        Disk capacity in bytes (the paper's servers have a 1TB HDD).
    tiers:
        Pre-built :class:`~repro.storage.NodeTierSet` (devices only; the
        DataNode attaches the per-tier caches).  When given,
        ``cache_capacity`` is ignored — the tier set is the hierarchy.
        When omitted, the paper's memory-over-HDD stack is built with
        ``cache_capacity`` and ``disk_capacity``.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        cache_capacity: float = MEM_TIER.default_capacity,
        disk_capacity: float = HDD_TIER.default_capacity,
        tiers: Optional[NodeTierSet] = None,
    ):
        if disk_capacity <= 0:
            raise ValueError("disk_capacity must be positive")
        self.env = env
        self.name = name
        self.disk_capacity = float(disk_capacity)
        self.disk_used = 0.0
        if tiers is None:
            tiers = build_tier_set(
                env,
                (MEM_TIER, HDD_TIER),
                name,
                {MEM: cache_capacity, HDD: disk_capacity},
            )
        if len(tiers) < 2:
            raise ValueError("a DataNode needs at least two tiers")
        self.tiers = tiers
        self.disk = tiers.bottom.device
        self.ram = tiers.top.device
        # Upper-tier caches are attached here (not in the tier builder) so
        # flush wiring stays a DataNode concern: only the top cache
        # write-absorbs, and dirty entries flush to the backing store.
        for tier in tiers.upper:
            tier.cache = BufferCache(
                env,
                capacity=tier.capacity,
                flush_device=self.disk if tier is tiers.top else None,
            )
        self.cache = tiers.top.cache
        self.alive = True

        self._blocks: Dict[str, Block] = {}
        #: Read-path hook: called with (block, job_id) after each block
        #: read served by this node on behalf of a job.  Ignem's slave
        #: uses it for implicit eviction; HDFS read calls carry the job
        #: ID (paper III-B2).  Job-less reads (serve traffic) never
        #: call it.
        self.on_block_read: Optional[Callable[[Block, Optional[str]], None]] = None
        #: Residency-delta subscriber (the NameNode's tier index);
        #: receives ``(node_name, tier_name, key, resident)``.
        self._residency_listener: Optional[
            Callable[[str, str, str, bool], None]
        ] = None
        #: Liveness hook: called with no arguments whenever ``alive``
        #: flips (the NameNode uses it to invalidate its live-node cache).
        self.on_liveness_change: Optional[Callable[[], None]] = None

    # -- residency delta publication -----------------------------------------

    def attach_residency_listener(
        self, listener: Callable[[str, str, str, bool], None]
    ) -> None:
        """Start pushing per-tier residency deltas to ``listener``.

        Deltas carry ``(node_name, tier_name, key, resident)`` and cover
        every way a key can (stop) being resident in an upper tier:
        migration pin-ins, read-path caching, write absorption, LRU
        eviction, explicit eviction, and the cache flush of a node
        failure.
        """
        self._residency_listener = listener
        for tier in self.tiers.upper:
            tier.cache.on_residency_change = self._tier_publisher(tier.spec.name)

    def detach_residency_listener(self) -> None:
        self._residency_listener = None
        for tier in self.tiers.upper:
            tier.cache.on_residency_change = None

    def _tier_publisher(self, tier_name: str) -> Callable[[str, bool], None]:
        def publish(key, resident: bool) -> None:
            listener = self._residency_listener
            if listener is not None:
                listener(self.name, tier_name, key, resident)

        return publish

    # -- block placement ----------------------------------------------------

    def has_capacity(self, nbytes: float) -> bool:
        """Whether the disk can take ``nbytes`` more."""
        return self.disk_used + nbytes <= self.disk_capacity

    def store_block(self, block: Block) -> None:
        """Place a replica of ``block`` on this node's disk (no IO cost;
        dataset generation happens before the measured run)."""
        if not self.alive:
            raise DataNodeError(f"DataNode {self.name} is down")
        if block.block_id in self._blocks:
            return
        if self.disk_used + block.nbytes > self.disk_capacity:
            raise DataNodeError(f"{self.name} is out of disk space")
        self.disk_used += block.nbytes
        self._blocks[block.block_id] = block

    def has_block(self, block_id: str) -> bool:
        return self.alive and block_id in self._blocks

    def stored_blocks(self) -> Set[str]:
        return set(self._blocks.keys())

    def drop_block(self, block_id: str) -> None:
        dropped = self._blocks.pop(block_id, None)
        if dropped is not None:
            self.disk_used = max(0.0, self.disk_used - dropped.nbytes)
        for tier in self.tiers.upper:
            tier.cache.evict(block_id)

    # -- read / write paths ----------------------------------------------------

    def block_in_memory(self, block_id: str) -> bool:
        """Whether a read of ``block_id`` would be served from RAM."""
        return self.alive and self.cache.peek(block_id)

    def block_tier(self, block_id: str) -> Optional[str]:
        """The tier a read of ``block_id`` would be served from, or
        ``None`` if this node does not store the block at all."""
        if not self.alive or block_id not in self._blocks:
            return None
        for tier in self.tiers.upper:
            if tier.cache.peek(block_id):
                return tier.spec.name
        return self.tiers.bottom.spec.name

    def read_block(self, block: Block, job_id: Optional[str] = None) -> "ReadHandle":
        """Serve a block read; returns a handle with the done event and
        the medium (the serving tier's read source) that served it."""
        self._ensure_alive()
        if block.block_id not in self._blocks:
            raise DataNodeError(f"{self.name} does not store {block.block_id}")

        for tier in self.tiers.upper:
            if tier.cache.contains(block.block_id):
                source = tier.spec.source
                done = tier.device.transfer(
                    block.nbytes, tag=("read", block.block_id)
                )
                break
        else:
            source = self.tiers.bottom.spec.source
            done = self.disk.transfer(block.nbytes, tag=("read", block.block_id))

        if job_id is not None and self.on_block_read is not None:
            hook = self.on_block_read
            # Guarded on success *and* liveness: a read aborted by node
            # failure must not drive implicit eviction on the dead slave.
            done.callbacks.append(
                lambda event: hook(block, job_id)
                if event._ok and self.alive
                else None
            )
        return ReadHandle(done=done, source=source, node=self.name)

    def absorb_write(self, block: Block) -> None:
        """Write a new block: absorbed by the buffer cache (write-back).

        Completes synchronously (the cache absorbs at memory speed); use
        :meth:`write_block` when the caller needs an event to wait on.
        """
        self._ensure_alive()
        if block.block_id not in self._blocks:
            if not self.has_capacity(block.nbytes):
                raise DataNodeError(f"{self.name} is out of disk space")
            self.disk_used += block.nbytes
            self._blocks[block.block_id] = block
        self.cache.write_absorb(block.block_id, block.nbytes)

    def write_block(self, block: Block) -> Event:
        """Event-returning wrapper around :meth:`absorb_write`."""
        self.absorb_write(block)
        done = Event(self.env)
        done.succeed(None)
        return done

    # -- migration support (used by the Ignem slave) ---------------------------

    def migration_source(self, block_id: str, dst_tier: str) -> TransferDevice:
        """The device a migration into ``dst_tier`` would read from: the
        highest tier below the destination currently holding the block
        (the backing store holds every replica by definition)."""
        dst = self._upper_tier(dst_tier)
        below = False
        for tier in self.tiers.upper:
            if tier is dst:
                below = True
                continue
            if below and tier.cache.peek(block_id):
                return tier.device
        return self.disk

    def migrate_block_to_tier(self, block: Block, dst_tier: str) -> Event:
        """Read a block sequentially from below and pin it in ``dst_tier``.

        This is the mmap+mlock path of paper Section III-B1 generalized
        across tiers: the data lands pinned in the destination tier's
        cache, locked against page-out.  The read shares the source
        device like any other stream.  The returned event fires when the
        block is fully
        resident.  If a lower upper tier held the block, its copy is
        released on arrival (a replica occupies one upper tier at a
        time).
        """
        self._ensure_alive()
        if block.block_id not in self._blocks:
            raise DataNodeError(f"{self.name} does not store {block.block_id}")
        dst = self._upper_tier(dst_tier)
        if dst.cache.peek(block.block_id):
            dst.cache.pin(block.block_id)
            done = Event(self.env)
            done.succeed(None)
            return done
        source = self.migration_source(block.block_id, dst_tier)
        done = source.transfer(block.nbytes, tag=("migrate", block.block_id))

        # Guarded pin-in: the node's failure fails every transfer on its
        # devices, including one still in its latency window, but a read
        # that completed at the failure instant is already queued as a
        # success and arrives *after* the failure flushed the caches;
        # inserting then would publish a residency delta for a dead node
        # and leave a stale entry in the NameNode's tier index.
        def arrive(event) -> None:
            if not event._ok or not self.alive:
                return
            dst.cache.insert(block.block_id, block.nbytes, pinned=True)
            for tier in self.tiers.upper:
                if tier is not dst and tier.cache.peek(block.block_id):
                    tier.cache.evict(block.block_id)

        done.callbacks.append(arrive)
        return done

    def evict_block_from_tier(self, block_id: str, tier_name: str) -> bool:
        """munmap: release a pinned block from one upper tier (no
        write-back — input data is read-only, paper Section III-B1)."""
        return self._upper_tier(tier_name).cache.evict(block_id)

    def _upper_tier(self, tier_name: str) -> NodeTier:
        tier = self.tiers.get(tier_name)
        if tier is None or tier.cache is None:
            raise DataNodeError(
                f"{self.name} has no migratable tier {tier_name!r} "
                f"(tiers: {'/'.join(self.tiers.names())})"
            )
        return tier

    # -- failure handling ---------------------------------------------------------

    def fail(self) -> None:
        """Kill the DataNode process: all in-memory state is lost (the OS
        reclaims the slave's mapped pages, paper III-A5).

        Every in-flight disk/RAM transfer fails deterministically so no
        reader or migration waits forever on a device that will never
        drain; the cache flush publishes eviction deltas, keeping the
        NameNode's memory-locality index consistent.
        """
        self.alive = False
        if self.on_liveness_change is not None:
            self.on_liveness_change()
        # Devices fail bottom-up (disk first, as before), then every
        # upper-tier cache flushes top-down — the 2-tier order is exactly
        # the historical disk / ram / cache sequence.
        for tier in reversed(self.tiers.tiers):
            tier.device.fail_all(
                DataNodeError(f"DataNode {self.name} died mid-transfer")
            )
        for tier in self.tiers.upper:
            tier.cache.flush_all()

    def restart(self) -> None:
        """Restart the process on the same server; disk blocks survive."""
        self.alive = True
        if self.on_liveness_change is not None:
            self.on_liveness_change()

    def _ensure_alive(self) -> None:
        if not self.alive:
            raise DataNodeError(f"DataNode {self.name} is down")

    def __repr__(self) -> str:
        status = "up" if self.alive else "DOWN"
        return f"<DataNode {self.name} {status} blocks={len(self._blocks)}>"


class ReadHandle:
    """Result of :meth:`DataNode.read_block`."""

    __slots__ = ("done", "source", "node")

    def __init__(self, done: Event, source: str, node: str):
        self.done = done
        self.source = source
        self.node = node
