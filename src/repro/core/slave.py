"""IgnemSlave: per-server migration worker inside the DataNode.

Controls *how* and *when* blocks move into memory (paper Section III-A):

* incoming work queues in priority order (smallest-job-first by default),
  one ordered queue per destination tier (the paper's design is the
  single ``mem`` queue);
* one block migrates at a time per tier, at full sequential bandwidth of
  the tier it reads from;
* migration is work-conserving — pending work never waits behind nothing;
* per-block reference lists of job IDs govern eviction: explicit on job
  completion, implicit on read (opt-in), plus a scheduler liveness sweep
  under memory pressure (III-A4);
* the *Do-not-harm* rule, applied per destination tier: when a tier's
  migration buffer is full, new blocks wait — migrated data is never
  evicted to admit them (III-A3).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..dfs.blocks import Block
from ..dfs.datanode import DataNode, DataNodeError
from ..metrics.collector import MetricsCollector, RecordListener
from ..metrics.records import EvictionRecord, MemorySample, MigrationRecord
from ..obs.registry import MetricsRegistry
from ..scheduler.resource_manager import ResourceManager
from ..sim.engine import Environment
from ..sim.events import Event
from ..sim.resources import PriorityStore
from ..transport.messages import Ack, EvictMsg, FailoverMsg, MigrateMsg
from .commands import EvictCommand, MigrateCommand, MigrationWorkItem
from .config import BUSY_POLL_INTERVAL, CLEANUP_THRESHOLD, IgnemConfig
from .policy import MigrationPolicy, make_policy


class IgnemSlave:
    """Migration agent co-located with one DataNode."""

    def __init__(
        self,
        env: Environment,
        datanode: DataNode,
        rm: Optional[ResourceManager],
        config: Optional[IgnemConfig] = None,
        collector: Optional[MetricsCollector] = None,
        registry: Optional[MetricsRegistry] = None,
        tier_accumulator: Optional[Dict[str, float]] = None,
    ):
        self.env = env
        self.datanode = datanode
        self.rm = rm
        #: Optional shared per-tier occupancy totals, folded into on every
        #: accounting delta so a cluster-wide snapshot never has to sum
        #: over every slave (O(1) instead of O(nodes) at trace scale).
        self._tier_accumulator = tier_accumulator
        self.config = config or IgnemConfig()
        self.collector = collector or MetricsCollector()
        self.metrics = registry or MetricsRegistry()
        self.policy: MigrationPolicy = make_policy(
            self.config.policy, self.config.reverse_within_job
        )
        self.name = datanode.name

        destinations = self.config.destination_tiers()
        #: One ordered migration queue per destination tier.
        self.tier_queues: Dict[str, PriorityStore] = {
            tier: PriorityStore(env) for tier in destinations
        }
        self._refs: Dict[str, Set[str]] = {}
        self._implicit_jobs: Set[str] = set()
        self._migrated: Dict[str, float] = {}
        self._migrated_tier: Dict[str, str] = {}
        self._migrated_meta: Dict[str, Tuple[float, float]] = {}
        self.migrated_bytes = 0.0
        #: Per-destination-tier migrated-bytes totals.
        self.tier_bytes: Dict[str, float] = {tier: 0.0 for tier in destinations}
        #: Start of the usage timelines (every tier is empty here).
        self.created_at = env.now
        self._space_freed: Dict[str, Event] = {
            tier: env.event() for tier in destinations
        }
        self.alive = True
        #: Observability facade; ``None`` is the zero-overhead clean path.
        self.obs = None

        # Registry instruments for facts no record carries (shared across
        # slaves when cluster-built, so ``ignem.slave.*`` are cluster-wide
        # totals).  Counter bumps are pure bookkeeping — they never touch
        # simulation time, so the clean path stays bit-identical.
        metrics = self.metrics
        self._c_refs_added = metrics.counter("ignem.slave.refs_added")
        self._c_refs_removed = metrics.counter("ignem.slave.refs_removed")
        self._c_dnh_waits = metrics.counter("ignem.slave.do_not_harm_waits")
        self._h_queue_wait = metrics.histogram("ignem.slave.queue_wait_seconds")

        datanode.on_block_read = self._on_block_read
        for tier in destinations:
            # The default tier's workers keep their historical names.
            suffix = "" if tier == self.config.migration_tier else f"-{tier}"
            for index in range(self.config.migration_concurrency):
                env.process(
                    self._worker(tier),
                    name=f"ignem-slave-{self.name}{suffix}-w{index}",
                )

    # -- command intake (from the master) --------------------------------------

    def handle_message(self, msg):
        """The slave's ``slave/<node>`` transport endpoint.

        Translates protocol messages into the historical receive calls;
        the :class:`~repro.transport.messages.Ack` carries the same
        acknowledgement bit the master's retry machinery keys on.
        """
        if isinstance(msg, MigrateMsg):
            return Ack(self.receive_migrate(msg.command))
        if isinstance(msg, EvictMsg):
            return Ack(self.receive_evict(msg.command))
        if isinstance(msg, FailoverMsg):
            # A master change (failover or cold restart): purge reference
            # state to stay consistent with the new master (III-A5).
            self.purge_all(reason="failure")
            return Ack(True)
        raise TypeError(f"slave cannot handle {type(msg).__name__}")

    def receive_migrate(self, command: MigrateCommand) -> bool:
        """Queue a batch of migration work for one job.

        Returns the RPC acknowledgement: ``False`` when the slave is down
        (the command was lost), which drives the master's retry path.
        """
        if not self.alive:
            return False
        now = self.env.now
        for item in command.items:
            queue = self.tier_queues.get(item.dst_tier)
            if queue is None:
                raise ValueError(
                    f"slave {self.name} has no migration queue for tier "
                    f"{item.dst_tier!r} (destinations: "
                    f"{', '.join(self.tier_queues)})"
                )
            refs = self._refs.setdefault(item.block_id, set())
            refs.add(item.job_id)
            self._c_refs_added.inc()
            if item.implicit_eviction:
                self._implicit_jobs.add(item.job_id)
            item.received_at = now
            queue.put_nowait(self.policy.priority(item), item)
        return True

    def receive_evict(self, command: EvictCommand) -> bool:
        """Drop a completed job's references (explicit eviction).
        Returns the RPC acknowledgement, as :meth:`receive_migrate`."""
        if not self.alive:
            return False
        for block_id in command.block_ids:
            self._remove_ref(block_id, command.job_id, reason="explicit")
        return True

    # -- state queries --------------------------------------------------------------

    def block_migrated(self, block_id: str) -> bool:
        return block_id in self._migrated

    def reference_list(self, block_id: str) -> Set[str]:
        return set(self._refs.get(block_id, ()))

    def reference_count(self) -> int:
        """Total job references across all blocks (leak detector)."""
        return sum(len(refs) for refs in self._refs.values())

    def referenced_blocks(self) -> Dict[str, Set[str]]:
        """Copy of the block -> referencing-jobs map (invariant checks)."""
        return {block_id: set(refs) for block_id, refs in self._refs.items()}

    def resident_bytes(self) -> float:
        """Sum of the sizes of currently migrated blocks; must equal
        :attr:`migrated_bytes` up to float noise (accounting invariant)."""
        return sum(self._migrated.values())

    @property
    def pending_migrations(self) -> int:
        return sum(len(queue) for queue in self.tier_queues.values())

    @property
    def usage_timeline(self) -> List[Tuple[float, float]]:
        """``(time, migrated_bytes)`` from creation on — Fig 7's raw data,
        a view over this node's memory samples."""
        samples = self.collector.memory_samples_for(self.name)
        return [(self.created_at, 0.0)] + [(s.time, s.migrated_bytes) for s in samples]

    @property
    def tier_usage_timeline(self) -> Dict[str, List[Tuple[float, float]]]:
        """Per destination tier, ``(time, tier_bytes)`` from creation on —
        the buffer-cap checks' data, a view over this node's samples."""
        timelines = {tier: [(self.created_at, 0.0)] for tier in self.tier_bytes}
        for s in self.collector.memory_samples_for(self.name):
            timelines.setdefault(s.tier, []).append((s.time, s.tier_bytes))
        return timelines

    # -- failure handling --------------------------------------------------------------

    def purge_all(self, reason: str = "failure") -> None:
        """Drop every reference list and migrated block.

        Used when the master fails (slaves reset to match the new
        master's empty state, paper III-A5) and on slave restart.
        """
        for block_id in list(self._migrated.keys()):
            self._release_block(block_id, reason=reason)
        self._refs.clear()
        self._implicit_jobs.clear()
        for queue in self.tier_queues.values():
            queue.clear()

    def fail(self) -> None:
        """Kill the slave process; the OS reclaims all pinned memory."""
        self.alive = False
        self.purge_all(reason="failure")

    def decommission(self) -> None:
        """Graceful shutdown for a node leaving the cluster: stop
        accepting work and release every migrated block (the eviction
        records carry ``reason="decommission"`` so byte accounting can
        tell a drain from a crash)."""
        self.alive = False
        self.purge_all(reason="decommission")

    def restart(self) -> None:
        """Restart on the same server; comes back with empty state."""
        self.alive = True

    # -- migration worker -------------------------------------------------------------

    def _worker(self, tier: str):
        queue = self.tier_queues[tier]
        while True:
            item = yield queue.get()
            yield from self._handle(item)

    def _handle(self, item: MigrationWorkItem):
        block = item.block
        block_id = item.block_id
        tier = item.dst_tier
        capacity = self.config.buffer_capacity_for(tier)
        enqueued_at = self.env.now
        self._h_queue_wait.observe(max(0.0, enqueued_at - item.received_at))

        refs = self._refs.get(block_id)
        if not refs or item.job_id not in refs:
            # Every interested job finished or already read the block from
            # disk while the work queued — migrating now would be waste.
            self._record_migration(item, enqueued_at, outcome="skipped")
            return

        if block_id in self._migrated:
            return  # another job's command already migrated it

        # Capacity gate (paper III-B2), per destination tier: wait for
        # space, never evict not-yet-read blocks to make room
        # (Do-not-harm, III-A3) — unless the ablation config allows
        # preempting blocks of later jobs.
        while self.tier_bytes[tier] + block.nbytes > capacity:
            self._maybe_cleanup_dead_jobs()
            if self.tier_bytes[tier] + block.nbytes <= capacity:
                break
            if not self.config.do_not_harm and self._evict_victim(item):
                continue
            # Do-not-harm stall (paper III-A3): the tier's buffer is full
            # and migrated data is never evicted to admit new blocks.
            self._c_dnh_waits.inc()
            wait_start = self.env.now
            yield self._wait_for_space(tier)
            if self.obs is not None:
                self.obs.on_do_not_harm_wait(
                    self.name, block_id, item.job_id, wait_start
                )
            refs = self._refs.get(block_id)
            if not refs:
                self._record_migration(item, enqueued_at, outcome="skipped")
                return

        refs = self._refs.get(block_id)
        if not refs:
            self._record_migration(item, enqueued_at, outcome="skipped")
            return
        if block_id in self._migrated:
            return

        # Optional Aqueduct-style throttle: hold off while the source
        # device is already serving many foreground streams, bounding
        # migration's impact on foreground reads (busy_threshold).
        if self.config.busy_threshold is not None:
            while (
                self.datanode.alive
                and self.datanode.migration_source(block_id, tier).active_transfers
                >= self.config.busy_threshold
            ):
                yield self.env.timeout(BUSY_POLL_INTERVAL)
                if not self._refs.get(block_id):
                    self._record_migration(item, enqueued_at, outcome="skipped")
                    return

        start = self.env.now
        if not self.datanode.alive:
            self._record_migration(item, enqueued_at, outcome="cancelled")
            return
        try:
            yield self.datanode.migrate_block_to_tier(block, tier)
        except DataNodeError:
            # The DataNode died mid-read: the partial pages are gone with
            # the process; the worker survives to serve post-restart work.
            self._record_migration(item, enqueued_at, outcome="cancelled")
            return

        # Reads may have raced with the migration and emptied the list.
        if not self._refs.get(block_id):
            self.datanode.evict_block_from_tier(block_id, tier)
            self._record_migration(item, enqueued_at, outcome="cancelled")
            return

        self._migrated[block_id] = block.nbytes
        self._migrated_tier[block_id] = tier
        self._migrated_meta[block_id] = (
            item.job_input_bytes,
            item.job_submitted_at,
        )
        self._account(block.nbytes, tier)
        self._record_migration(item, enqueued_at, outcome="completed", start=start)

    # -- reference lists & eviction -----------------------------------------------------

    def _on_block_read(self, block: Block, job_id: Optional[str]) -> None:
        """DataNode read-path hook: implicit eviction (paper III-B2)."""
        if job_id not in self._implicit_jobs:
            return
        self._remove_ref(block.block_id, job_id, reason="implicit")

    def _remove_ref(self, block_id: str, job_id: str, reason: str) -> None:
        refs = self._refs.get(block_id)
        if refs is None or job_id not in refs:
            return
        refs.discard(job_id)
        self._c_refs_removed.inc()
        if not refs:
            del self._refs[block_id]
            self._release_block(block_id, reason=reason)

    def _release_block(self, block_id: str, reason: str) -> None:
        nbytes = self._migrated.pop(block_id, None)
        self._migrated_meta.pop(block_id, None)
        if nbytes is None:
            return
        tier = self._migrated_tier.pop(block_id, self.config.migration_tier)
        self.datanode.evict_block_from_tier(block_id, tier)
        self._account(-nbytes, tier)
        self.collector.record_eviction(
            EvictionRecord(
                block_id=block_id,
                node=self.name,
                nbytes=nbytes,
                time=self.env.now,
                reason=reason,
                tier=tier,
            )
        )
        self._signal_space(tier)

    def cleanup_dead_jobs(self, force: bool = False) -> None:
        """Liveness sweep (paper III-A4): drop references held by jobs the
        scheduler no longer knows.  Normally gated on memory pressure
        (``CLEANUP_THRESHOLD``); ``force=True`` sweeps unconditionally —
        the post-run invariant checker uses it to settle leaked state.
        """
        if self.rm is None:
            return
        if not force:
            # Pressure = the fullest destination tier (identical to the
            # historical single-buffer formula on the default config).
            occupancy = max(
                self.tier_bytes[tier] / self.config.buffer_capacity_for(tier)
                for tier in self.tier_bytes
            )
            if occupancy < CLEANUP_THRESHOLD:
                return
        dead_jobs = {
            job_id
            for refs in self._refs.values()
            for job_id in refs
            if not self.rm.job_active(job_id)
        }
        for job_id in dead_jobs:
            for block_id in [
                bid for bid, refs in self._refs.items() if job_id in refs
            ]:
                self._remove_ref(block_id, job_id, reason="cleanup")

    def _maybe_cleanup_dead_jobs(self) -> None:
        self.cleanup_dead_jobs(force=False)

    def _evict_victim(self, incoming: MigrationWorkItem) -> bool:
        """Ablation path (do_not_harm=False): evict the migrated block of
        the largest / latest job to admit the incoming block.  Only blocks
        resident in the incoming block's destination tier free the right
        space; never evicts blocks belonging to jobs smaller than the
        incoming one — that would be strictly harmful even under the
        aggressive policy."""
        candidates = [
            (meta, block_id)
            for block_id, meta in self._migrated_meta.items()
            if meta > (incoming.job_input_bytes, incoming.job_submitted_at)
            and self._migrated_tier.get(block_id) == incoming.dst_tier
        ]
        if not candidates:
            return False
        _, victim = max(candidates)
        for job_id in list(self._refs.get(victim, ())):
            self._refs[victim].discard(job_id)
        self._refs.pop(victim, None)
        self._release_block(victim, reason="preempted")
        return True

    def _wait_for_space(self, tier: str) -> Event:
        if self._space_freed[tier].triggered:
            self._space_freed[tier] = self.env.event()
        return self._space_freed[tier]

    def _signal_space(self, tier: str) -> None:
        event = self._space_freed.get(tier)
        if event is not None and not event.triggered:
            event.succeed()

    # -- accounting ----------------------------------------------------------------------

    def _account(self, delta: float, tier: str) -> None:
        self.migrated_bytes += delta
        if self.migrated_bytes < 0:
            # Fractional final blocks make the +/- sums float-inexact;
            # clamp the sub-byte residue but treat real negatives as bugs.
            if self.migrated_bytes < -1.0:
                raise AssertionError(
                    f"negative migrated_bytes on {self.name}: {self.migrated_bytes}"
                )
            self.migrated_bytes = 0.0
        old_per_tier = self.tier_bytes.get(tier, 0.0)
        per_tier = old_per_tier + delta
        if per_tier < 0:
            if per_tier < -1.0:
                raise AssertionError(
                    f"negative tier bytes on {self.name}/{tier}: {per_tier}"
                )
            per_tier = 0.0
        self.tier_bytes[tier] = per_tier
        accumulator = self._tier_accumulator
        if accumulator is not None:
            accumulator[tier] = (
                accumulator.get(tier, 0.0) + per_tier - old_per_tier
            )
        self.collector.record_memory_sample(
            MemorySample(self.name, self.env.now, self.migrated_bytes, tier, per_tier)
        )

    def _record_migration(
        self, item: MigrationWorkItem, enqueued_at: float, outcome: str, start=None
    ) -> None:
        """Report one migration; ``start`` is now unless data moved."""
        now = self.env.now
        self.collector.record_migration(
            MigrationRecord(
                job_id=item.job_id,
                block_id=item.block_id,
                node=self.name,
                nbytes=item.block.nbytes,
                enqueued_at=enqueued_at,
                start=now if start is None else start,
                end=now,
                outcome=outcome,
                tier=item.dst_tier,
                queue_wait=max(0.0, enqueued_at - item.received_at),
            )
        )

    def __repr__(self) -> str:
        return (
            f"<IgnemSlave {self.name} migrated={len(self._migrated)} "
            f"pending={self.pending_migrations}>"
        )


def slave_record_counters(registry: MetricsRegistry) -> RecordListener:
    """A collector listener counting slave records into ``ignem.slave.*``:
    migrations per outcome (from 0), completed-migration seconds, and
    evictions per reason (each counter appears with its first eviction)."""
    by_outcome = {
        outcome: registry.counter(f"ignem.slave.migrations_{outcome}")
        for outcome in ("completed", "skipped", "cancelled")
    }
    seconds = registry.histogram("ignem.slave.migration_seconds")

    def on_record(record) -> None:
        kind = type(record)
        if kind is MigrationRecord:
            by_outcome[record.outcome].inc()
            if record.outcome == "completed":
                seconds.observe(record.duration)
        elif kind is EvictionRecord:
            registry.counter(f"ignem.slave.evictions.{record.reason}").inc()

    return on_record
