"""Executable reference model of the Ignem master/slave contract.

The :class:`DifferentialChecker` is a pure-python re-statement of the
paper's migration rules (III-A1 through III-A4), checked against the
real implementation from the outside:

* **online**, at every command boundary: the master's ``command_tap``
  fires after each *accepted* delivery, where the checker verifies the
  slave's synchronous state change (reference-list update on migrate,
  reference drop on evict) and the one-replica-per-block rule, and logs
  the delivery for the post-run replay;
* **post-run**, over the collector's records: a reference slave per
  node replays the logged deliveries against the observed
  :class:`~repro.metrics.records.MigrationRecord` and
  :class:`~repro.metrics.records.EvictionRecord` stream, simulating the
  exact worker loop — pop the minimum-priority item, silently drop it if
  its block is already resident, otherwise demand a matching migration
  record — which checks migration *order* (smallest-job-first with
  submission-time tie-break), non-preemption (one worker, one busy
  window at a time), work-conservation (a queued item never rots
  unserved), and queue-wait accounting.

The model deliberately re-implements the priority spec instead of
importing :mod:`repro.core.policy`: a regression in the product policy
must *disagree* with this file to be caught.

The command boundary the tap observes is now a transport boundary:
master→slave commands travel as :class:`~repro.transport.messages`
``MigrateMsg``/``EvictMsg`` over the cluster's
:class:`~repro.transport.sim.SimTransport`, which delivers the
*original* command objects synchronously.  The tap therefore still sees
exactly the objects the slaves queue — identity, ``seq`` tie-breaks,
and delivery order are all unchanged by the message-passing refactor.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from ..core.config import IgnemConfig
from ..metrics.records import EvictionRecord, MigrationRecord

#: Slack for same-instant comparisons between an eviction and a
#: dequeue; everything inside one simulated instant lands within this
#: window.
_TIME_EPS = 1e-5
#: Sort-key quantum: distinct simulated instants differ by at least an
#: RPC latency (2ms), far above the float noise this absorbs.
_QUANT = 7


def reference_priority(
    policy: str,
    job_input_bytes: float,
    job_submitted_at: float,
    order_hint: int,
) -> Tuple:
    """The paper's queue-ordering spec, restated (lower migrates first).

    III-A1: smallest job first, ties by submission time, within a job
    tail-first (the product's default ``reverse_within_job``).  The FIFO
    ablation orders purely by submission time.
    """
    if policy == "smallest-job-first":
        return (job_input_bytes, job_submitted_at, -order_hint)
    if policy == "fifo":
        return (job_submitted_at, -order_hint)
    raise ValueError(f"reference model does not cover policy {policy!r}")


@dataclass(frozen=True)
class DeliveredItem:
    """One migration work item as accepted by a slave."""

    time: float
    node: str
    job_id: str
    block_id: str
    nbytes: float
    priority: Tuple
    seq: int
    #: Destination tier: each (node, tier) pair has its own ordered
    #: queue and worker set, so the replay partitions on both.
    tier: str = "mem"


class DifferentialChecker:
    """Differential harness: online command-boundary checks + replay."""

    def __init__(self, config: IgnemConfig):
        # The reference slave has one worker and tail-first job queues.
        if config.migration_concurrency != 1 or not config.reverse_within_job:
            raise ValueError(
                "reference model covers migration_concurrency=1 with "
                "reverse_within_job only"
            )
        self.policy = config.policy
        self.replicas_to_migrate = config.replicas_to_migrate
        self.violations: List[str] = []
        #: Accepted migrate work, in delivery order.
        self.delivered: List[DeliveredItem] = []
        #: Accepted evict deliveries: (time, node, job, blocks).
        self.evict_deliveries: List[Tuple[float, str, str, Tuple[str, ...]]] = []
        self._targets: Dict[Tuple[str, str], Set[str]] = {}

    # -- online: the command boundary ------------------------------------------

    def on_delivery(self, node: str, kind: str, command, slave) -> None:
        """Master ``command_tap``: fired after every accepted delivery."""
        now = slave.env.now
        if kind == "migrate":
            for item in command.items:
                refs = slave.reference_list(item.block_id)
                if item.job_id not in refs:
                    self.violations.append(
                        f"[boundary] {node}: migrate({item.job_id}/"
                        f"{item.block_id}) accepted but the reference "
                        f"list {sorted(refs)} does not hold the job"
                    )
                targets = self._targets.setdefault(
                    (item.job_id, item.block_id), set()
                )
                targets.add(node)
                if len(targets) > self.replicas_to_migrate:
                    self.violations.append(
                        f"[one-replica] {item.job_id}/{item.block_id} "
                        f"accepted on {sorted(targets)} but only "
                        f"{self.replicas_to_migrate} replica(s) may migrate"
                    )
                self.delivered.append(
                    DeliveredItem(
                        time=now,
                        node=node,
                        job_id=item.job_id,
                        block_id=item.block_id,
                        nbytes=item.block.nbytes,
                        priority=reference_priority(
                            self.policy,
                            item.job_input_bytes,
                            item.job_submitted_at,
                            item.order_hint,
                        ),
                        seq=item.seq,
                        tier=item.dst_tier,
                    )
                )
        else:
            for block_id in command.block_ids:
                refs = slave.reference_list(block_id)
                if command.job_id in refs:
                    self.violations.append(
                        f"[boundary] {node}: evict({command.job_id}/"
                        f"{block_id}) accepted but the job still holds a "
                        f"reference"
                    )
                # The one-replica rule bounds *live* migrated replicas:
                # an accepted evict releases the target, so a later
                # re-migration (the heat policy demotes and re-promotes
                # the same block as popularity swings) may pick a
                # different node without tripping the bound.
                self._targets.get(
                    (command.job_id, block_id), set()
                ).discard(node)
            self.evict_deliveries.append(
                (now, node, command.job_id, tuple(command.block_ids))
            )

    def on_slave_failure(self, node: str) -> None:
        """Master ``failure_tap``: the slave's migrated replicas and
        queue died with its process (or were purged to match a cold
        master restart), so the node stops counting toward the
        one-replica bound — crash-safe migration-queue abandonment means
        the next migrate for the same block may pick a fresh replica."""
        for targets in self._targets.values():
            targets.discard(node)

    # -- post-run: record replay --------------------------------------------------

    def replay(
        self,
        migrations: Sequence[MigrationRecord],
        evictions: Sequence[EvictionRecord],
        purges: Sequence[Tuple[float, str]],
    ) -> List[str]:
        """Replay the run per node; returns (and records) violations.

        ``migrations`` and ``evictions`` are the collector's records in
        report order (which, per node and tier, is dequeue order: a
        one-worker slave reports each item when its handling ends, before
        the next pop).  ``purges`` are the (time, node) pairs at which
        the live slave dropped its whole queue (crash, or a master
        restart/failover purge).
        """
        # Each (node, destination-tier) pair runs its own queue + worker
        # set, so the replay partitions on both.
        pops: Dict[Tuple[str, str], List[MigrationRecord]] = {}
        for record in migrations:
            pops.setdefault((record.node, record.tier), []).append(record)
        evicted: Dict[Tuple[str, str], List[Tuple[float, str]]] = {}
        for record in evictions:
            evicted.setdefault((record.node, record.tier), []).append(
                (record.time, record.block_id)
            )

        deliveries: Dict[Tuple[str, str], List[DeliveredItem]] = {}
        for item in self.delivered:
            deliveries.setdefault((item.node, item.tier), []).append(item)
        # Purges are whole-node events (crash, master restart): they
        # drop every tier queue of the node at once.
        purge_map: Dict[str, List[float]] = {}
        for when, node in purges:
            purge_map.setdefault(node, []).append(when)

        for node, tier in sorted(set(deliveries) | set(pops)):
            label = node if tier == "mem" else f"{node}[{tier}]"
            self._replay_node(
                label,
                deliveries.get((node, tier), []),
                pops.get((node, tier), []),
                evicted.get((node, tier), []),
                purge_map.get(node, []),
            )
        return self.violations

    # -- the per-node worker simulation --------------------------------------------

    def _replay_node(
        self,
        node: str,
        delivered: List[DeliveredItem],
        pops: List[MigrationRecord],
        evictions: List[Tuple[float, str]],
        purges: List[float],
    ) -> None:
        # Event ranks at one instant mirror the live slave's intra-instant
        # order: completions land their block (0) and new work arrives (1)
        # before the queue is purged (2); the worker frees up (3) and
        # drains before evictions (4) retire residency — the generous
        # order for the resident-at-pop check, with `last_evicted` as the
        # epsilon fallback for same-instant races.
        events: List[Tuple[float, int, int, str, object]] = []
        idx = 0
        batch: List[DeliveredItem] = []
        for item in delivered:
            if batch and round(item.time, _QUANT) != round(
                batch[0].time, _QUANT
            ):
                events.append(
                    (round(batch[0].time, _QUANT), 1, idx, "deliver", batch)
                )
                idx += 1
                batch = []
            batch.append(item)
        if batch:
            events.append(
                (round(batch[0].time, _QUANT), 1, idx, "deliver", batch)
            )
            idx += 1
        for when in purges:
            events.append((round(when, _QUANT), 2, idx, "purge", when))
            idx += 1
        for when, block_id in evictions:
            events.append((round(when, _QUANT), 4, idx, "evict", (when, block_id)))
            idx += 1
        for pop_i, pop in enumerate(pops):
            if pop.outcome == "completed":
                events.append(
                    (round(pop.end, _QUANT), 0, idx, "add", (pop_i, pop))
                )
                idx += 1
        heap = events
        heapq.heapify(heap)
        counter = [idx]

        pending: List[Tuple] = []  # (priority, seq, DeliveredItem)
        #: block -> index of the completed pop that landed it.  A block
        #: only counts as resident for the silent-drop rule once its own
        #: pop has been matched (guards against zero-duration spans whose
        #: resident-add lands at the same instant as the pop itself).
        resident: Dict[str, int] = {}
        last_evicted: Dict[str, float] = {}
        pop_index = 0
        busy = False
        flagged_conservation = False

        def droppable(block_id: str, now: float) -> bool:
            added_by = resident.get(block_id)
            if added_by is not None and added_by < pop_index:
                return True
            evicted_at = last_evicted.get(block_id)
            return evicted_at is not None and abs(now - evicted_at) <= _TIME_EPS

        def visibly_skipped(entry: DeliveredItem) -> bool:
            """True when the next observed pop is ``entry`` marked skipped.

            The live slave checks the reference list before the
            already-migrated set: a pop whose refs are gone records a
            visible "skipped" outcome even for a resident block, while a
            still-referenced resident block is swallowed silently.  The
            model cannot see reference counts, so a resident head is only
            dropped silently when the slave did not visibly skip it.
            """
            if pop_index >= len(pops):
                return False
            observed = pops[pop_index]
            return observed.outcome == "skipped" and (
                observed.job_id,
                observed.block_id,
            ) == (entry.job_id, entry.block_id)

        def occupy(observed: MigrationRecord) -> None:
            nonlocal busy
            busy = True
            counter[0] += 1
            heapq.heappush(
                heap,
                (round(observed.end, _QUANT), 3, counter[0], "free", observed),
            )

        def serve(entry: DeliveredItem, now: float) -> bool:
            """Match one model dequeue against the next observed pop.

            Returns True when ``entry`` itself was consumed; False on an
            order violation (the worker is then modeled as busy with the
            item the slave *actually* handled, so one product bug yields
            one violation, not a cascade).
            """
            nonlocal pop_index, flagged_conservation
            if pop_index >= len(pops):
                if not flagged_conservation:
                    self.violations.append(
                        f"[work-conservation] {node}: "
                        f"{entry.job_id}/{entry.block_id} stayed queued "
                        f"with an idle worker and was never handled"
                    )
                    flagged_conservation = True
                return True
            observed = pops[pop_index]
            pop_index += 1
            if (observed.job_id, observed.block_id) != (
                entry.job_id,
                entry.block_id,
            ):
                self.violations.append(
                    f"[order] {node}: reference model expects "
                    f"{entry.job_id}/{entry.block_id} "
                    f"(priority {entry.priority}) to migrate next, but "
                    f"the slave handled {observed.job_id}/"
                    f"{observed.block_id} ({observed.outcome})"
                )
                for i, (_, _, queued) in enumerate(pending):
                    if (queued.job_id, queued.block_id) == (
                        observed.job_id,
                        observed.block_id,
                    ):
                        pending[i] = pending[-1]
                        pending.pop()
                        heapq.heapify(pending)
                        break
                occupy(observed)
                return False
            expected_wait = now - entry.time
            if abs(expected_wait - observed.queue_wait) > 1e-3:
                self.violations.append(
                    f"[queue-wait] {node}: {entry.job_id}/"
                    f"{entry.block_id} reported queue_wait="
                    f"{observed.queue_wait:.6f} but the model dequeues "
                    f"it after {expected_wait:.6f}s"
                )
            occupy(observed)
            return True

        def drain(now: float) -> None:
            while pending and not busy:
                _, _, head = pending[0]
                if droppable(head.block_id, now) and not visibly_skipped(head):
                    heapq.heappop(pending)  # silent drop, zero sim time
                    continue
                if serve(head, now):
                    heapq.heappop(pending)

        now = 0.0
        while heap:
            q, rank, _, kind, payload = heapq.heappop(heap)
            if kind == "deliver":
                items = payload
                now = items[0].time
                start = 0
                if not busy and not pending:
                    # The live queue was empty with the worker parked on
                    # a pending get(): PriorityStore.put_nowait hands the
                    # batch's FIRST item (command order) straight to the
                    # getter, bypassing the priority order.  Only after
                    # that item resolves does the worker see the rest,
                    # sorted.
                    first = items[0]
                    start = 1
                    if droppable(first.block_id, now) and not visibly_skipped(
                        first
                    ):
                        pass  # silent zero-time drop, as in drain()
                    elif not serve(first, now):
                        heapq.heappush(
                            pending, (first.priority, first.seq, first)
                        )
                for item in items[start:]:
                    heapq.heappush(
                        pending, (item.priority, item.seq, item)
                    )
            elif kind == "purge":
                now = payload
                pending.clear()
            elif kind == "evict":
                when, block_id = payload
                now = when
                resident.pop(block_id, None)
                last_evicted[block_id] = when
            elif kind == "add":
                pop_i, pop = payload
                now = pop.end
                if pop.block_id in resident:
                    self.violations.append(
                        f"[double-migration] {node}: {pop.block_id} "
                        f"completed a migration while already resident"
                    )
                resident[pop.block_id] = pop_i
            elif kind == "free":
                now = payload.end
                busy = False
            # Defer the drain while more same-instant arrivals or purges
            # are queued: the live worker sees the full instant's
            # insertions (and a crash's purge) before its next pop
            # resolves.
            if heap and heap[0][0] == q and heap[0][1] <= 2:
                continue
            if not busy:
                drain(now)

        while pop_index < len(pops):
            observed = pops[pop_index]
            pop_index += 1
            self.violations.append(
                f"[phantom-pop] {node}: slave handled {observed.job_id}/"
                f"{observed.block_id} ({observed.outcome}) but the "
                f"reference model has no such item queued"
            )
