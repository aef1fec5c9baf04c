"""Self-healing replication: repair, thinning, rebalancing, decommission.

Real HDFS restores the replication factor when a DataNode dies: the
NameNode's ReplicationMonitor schedules copies from surviving replica
holders to other live nodes.  The paper leans on this (Section III-A5:
after a server failure "the file system removes the server from the
namespace map" and Ignem simply sees the updated replica locations) —
this module supplies the restore half so long-running simulated clusters
keep their fault tolerance, plus the elasticity half: background
rebalancing toward freshly joined nodes and graceful decommission that
drains a node's blocks before it is released.

Copies move real bytes through a pipelined chain (HDFS write pipeline):
one disk read on the source, then a store-and-forward hop per
destination, each committing its replica into the namespace map as soon
as it lands.  Concurrency is bounded per
source and per target, failed copies retry with exponential backoff
(the PR 2 command-machinery discipline), and repairs that cannot make
progress park on a topology-change event rather than polling, so an
idle simulation still drains.

Everything is event-driven: the cluster notifies the monitor on
failure/restart/join, and each notification triggers a full
under/over-replication sweep.  All randomized picks draw from one
dedicated child stream over sorted candidate lists, keeping runs
byte-reproducible per seed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from ..net.network import Network, NetworkError
from ..sim.engine import Environment
from ..sim.events import Event
from ..sim.rand import RandomSource
from .blocks import Block
from .datanode import DataNodeError
from .namenode import NameNode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..obs.api import Observability
    from ..obs.registry import MetricsRegistry


#: Concurrent outbound repair copies per source node.
MAX_COPIES_PER_SOURCE = 2
#: Concurrent inbound repair copies per destination node.
MAX_COPIES_PER_TARGET = 2
#: Copy attempts before a block's repair parks on a topology change
#: (the master's command machinery: bounded retries, exponential backoff).
MAX_RETRIES = 3
#: Base retry delay; doubles per attempt.
BACKOFF = 0.25
BACKOFF_FACTOR = 2.0
#: Polite wait while all copy slots on an endpoint are busy.
POLL_INTERVAL = 0.5


def _retry_delay(attempt: int) -> float:
    return BACKOFF * BACKOFF_FACTOR ** max(0, attempt - 1)


class ReplicationMonitor:
    """Tracks expected vs. live replica counts and heals the difference.

    Event-driven rather than scan-based so an idle simulation can drain:
    the cluster calls :meth:`handle_node_failure`,
    :meth:`handle_node_restart`, and :meth:`handle_node_join` on
    topology changes (wired automatically when the monitor is enabled),
    and :meth:`decommission` drains a node before release.
    """

    def __init__(
        self,
        env: Environment,
        namenode: NameNode,
        network: Network,
        registry: "MetricsRegistry",
        rng: Optional[RandomSource] = None,
    ):
        self.env = env
        self.namenode = namenode
        self.network = network
        self.rng = rng or RandomSource(0)
        self.registry = registry
        #: Tracing hooks (attached by ``Observability.attach``).
        self.obs: Optional["Observability"] = None
        #: Sabotage/self-test switch: ``False`` turns every handler into
        #: a no-op so DST can prove the oracles convict a cluster that
        #: does not heal.
        self.enabled = True

        self._active_by_source: Dict[str, int] = {}
        self._active_by_target: Dict[str, int] = {}
        #: Block ids with an in-flight repair process (dedupe).
        self._repairing: Set[str] = set()
        #: Nodes with an in-flight rebalance process.
        self._rebalancing: Set[str] = set()
        #: node -> completion Event for in-flight decommissions.
        self._decommissioning: Dict[str, Event] = {}
        #: Parked processes waiting for any topology change.
        self._topology_waiters: List[Event] = []
        #: Memoized block_id -> per-file expected replication factor.
        self._expected: Dict[str, int] = {}

    # -- public API --------------------------------------------------------------

    def under_replicated_blocks(self) -> List[Block]:
        """All blocks whose live replica count is below the target."""
        result: List[Block] = []
        live_nodes = len(self.namenode.live_datanodes())
        for path in self.namenode.list_files():
            metadata = self.namenode.get_file(path)
            target = min(metadata.replication, live_nodes)
            for block in metadata.blocks:
                live = self.namenode.get_block_locations(block.block_id)
                if 0 < len(live) < target:
                    result.append(block)
        return result

    def over_replicated_blocks(self) -> List[Block]:
        """Blocks with more live replicas than the target (a restarted
        node re-exposing replicas that were re-created elsewhere)."""
        result: List[Block] = []
        live_nodes = len(self.namenode.live_datanodes())
        for path in self.namenode.list_files():
            metadata = self.namenode.get_file(path)
            target = min(metadata.replication, live_nodes)
            for block in metadata.blocks:
                live = self.namenode.get_block_locations(block.block_id)
                if len(live) > target:
                    result.append(block)
        return result

    def missing_blocks(self) -> List[Block]:
        """Blocks with zero live replicas (data loss)."""
        result: List[Block] = []
        for path in self.namenode.list_files():
            for block in self.namenode.get_file(path).blocks:
                if not self.namenode.get_block_locations(block.block_id):
                    result.append(block)
        return result

    def handle_node_failure(self, node_name: str) -> int:
        """Schedule re-replication for every under-replicated block.

        Returns the number of repair processes scheduled.  Blocks with no
        surviving replica are unrecoverable (counted by
        ``dfs.repair.copies_failed``).
        """
        self._notify_topology()
        if not self.enabled:
            return 0
        lost = len(self.missing_blocks())
        if lost:
            self._count("copies_failed", lost)
        return self._schedule_repairs()

    def handle_node_restart(self, node_name: str) -> int:
        """React to a node coming back: thin excess replicas the restart
        re-exposed, and re-scan for under-replication (a repair that gave
        up while this node was the only hope can now proceed).

        Returns the number of excess replicas dropped.
        """
        self._notify_topology()
        if not self.enabled:
            return 0
        dropped = self._thin_excess()
        self._schedule_repairs()
        return dropped

    def handle_node_join(self, node_name: str) -> None:
        """React to a brand-new node: re-scan (its capacity may unblock
        parked repairs) and start background rebalancing toward it."""
        self._notify_topology()
        if not self.enabled:
            return
        self._schedule_repairs()
        if node_name in self._rebalancing:
            return
        self._rebalancing.add(node_name)
        self.env.process(
            self._rebalance(node_name), name=f"rebalance-{node_name}"
        )

    def decommission(self, node_name: str) -> Event:
        """Gracefully drain ``node_name``: copy every resident block to
        other live nodes, then succeed the returned event.  The drain
        refuses to finish while any block would drop below its (live-node
        capped) replication factor — if the cluster cannot absorb the
        replicas the event stays pending until topology changes make it
        possible."""
        pending = self._decommissioning.get(node_name)
        if pending is not None:
            return pending
        done = Event(self.env)
        self._decommissioning[node_name] = done
        self.env.process(
            self._drain(node_name, done), name=f"decommission-{node_name}"
        )
        return done

    def decommissioning_nodes(self) -> List[str]:
        return sorted(self._decommissioning)

    # -- repair scheduling -------------------------------------------------------

    def _schedule_repairs(self) -> int:
        scheduled = 0
        for block in self.under_replicated_blocks():
            if block.block_id in self._repairing:
                continue
            self._repairing.add(block.block_id)
            self.env.process(
                self._repair_block(block), name=f"re-replicate-{block.block_id}"
            )
            scheduled += 1
        return scheduled

    def _repair_block(self, block: Block):
        """One block's repair loop: copy until the target count is met,
        retrying with backoff and parking on topology changes when no
        placement is currently possible."""
        block_id = block.block_id
        attempt = 0
        try:
            while self.enabled:
                state = self._replication_state(block_id)
                if state is None:
                    return  # file deleted
                target, live = state
                need = target - len(live)
                if need <= 0:
                    return
                if not live:
                    # Every holder died while we were repairing.  If one
                    # restarts, handle_node_restart re-scans.
                    self._count("copies_failed", need)
                    return
                candidates = self._repair_candidates(block)
                if not candidates:
                    yield self._wait_topology()
                    attempt = 0
                    continue
                source = self.rng.choice(sorted(live))
                targets = self._sample_targets(candidates, need)
                ok = yield from self._chain_copy(
                    block, source, targets, reason="repair"
                )
                if ok:
                    attempt = 0
                    continue
                attempt += 1
                if attempt > MAX_RETRIES:
                    # Out of retries: park until the topology changes
                    # (a restart or loss-window end re-notifies us).
                    yield self._wait_topology()
                    attempt = 0
                    continue
                self._count("copy_retries")
                yield self.env.timeout(_retry_delay(attempt))
        finally:
            self._repairing.discard(block_id)

    def _chain_copy(self, block: Block, source: str, targets: Sequence[str], reason: str):
        """Pipelined re-replication: one source disk read, then a
        store-and-forward network hop per destination, each committing
        its replica as soon as it lands.  Returns True if every hop
        committed."""
        if not targets:
            return False
        yield from self._acquire(source, targets)
        start = self.env.now
        committed = 0
        ok = True
        try:
            yield self._read_from(source, block)
            prev = source
            for tgt in targets:
                yield self.network.transfer(
                    prev, tgt, block.nbytes, tag=("re-replicate", block.block_id)
                )
                yield self.namenode.datanode(tgt).write_block(block)
                if self._commit_replica(block, tgt, reason):
                    committed += 1
                prev = tgt
        except (DataNodeError, NetworkError):
            # An endpoint died or the message was lost mid-chain; the
            # caller's retry loop re-examines the block's replication.
            ok = False
        finally:
            self._release(source, targets)
        obs = self.obs
        if obs is not None:
            obs.on_repair_copy(
                block.block_id,
                source,
                list(targets),
                block.nbytes,
                start,
                "completed" if ok else "failed",
                reason,
            )
        if committed:
            self._notify_topology()
        return ok and committed > 0

    def _commit_replica(self, block: Block, target: str, reason: str) -> bool:
        """Register the freshly written replica, or discard it if the
        block no longer needs it (a concurrent repair won the race or the
        file was deleted)."""
        block_id = block.block_id
        state = self._replication_state(block_id)
        already_holder = target in self.namenode.block_replicas(block_id)
        stale = (
            state is None
            or already_holder
            or (reason == "repair" and len(state[1]) >= state[0])
        )
        if stale:
            if not already_holder:
                # Losing a commit race to a concurrent copy chain means
                # the target now legitimately holds the block — dropping
                # would destroy the winner's replica while the NameNode
                # still lists the holder.  Only unregistered bytes go.
                self.namenode.datanode(target).drop_block(block_id)
            self._count("copies_discarded")
            return False
        self.namenode.add_block_replica(block_id, target)
        self._count("copies_completed")
        return True

    # -- excess thinning ---------------------------------------------------------

    def _thin_excess(self) -> int:
        """Drop excess replicas a restarted node re-exposed.  Replicas
        pinned in an upper tier (an Ignem-migrated copy) are never the
        victim — thinning must not fight the migration subsystem."""
        dropped = 0
        for path in self.namenode.list_files():
            for block in self.namenode.get_file(path).blocks:
                dropped += self._thin_block(block.block_id)
        return dropped

    def _thin_block(self, block_id: str) -> int:
        """Drop one block's replicas down to its target count."""
        dropped = 0
        while True:
            state = self._replication_state(block_id)
            if state is None:
                break
            target, live = state
            if len(live) <= target:
                break
            victim = self._thin_victim(block_id, live)
            if victim is None:
                break  # every excess holder is migration-pinned
            self.namenode.remove_block_replica(block_id, victim)
            self.namenode.datanode(victim).drop_block(block_id)
            self._count("excess_dropped")
            obs = self.obs
            if obs is not None:
                obs.on_repair_drop(block_id, victim, "excess")
            dropped += 1
        return dropped

    def _thin_victim(self, block_id: str, live: Sequence[str]) -> Optional[str]:
        candidates = []
        for name in live:
            dn = self.namenode.datanode(name)
            # An upward-migrated replica is pinned in its tier and the
            # slave's byte accounting counts it.  A page-cache copy left
            # by a read or write is not pinned and does not protect it.
            if any(tier.cache.is_pinned(block_id) for tier in dn.tiers.upper):
                continue
            candidates.append(name)
        if not candidates:
            return None
        # Deterministic: relieve the fullest disk, ties by name.
        return max(candidates, key=lambda n: (self.namenode.datanode(n).disk_used, n))

    # -- rebalancing -------------------------------------------------------------

    def _rebalance(self, node: str):
        """Move replicas toward a freshly joined node, one at a time,
        until it carries its fair share (floor of the cluster average)."""
        try:
            while self.enabled:
                move = self._pick_rebalance_move(node)
                if move is None:
                    return
                donor, block = move
                ok = yield from self._chain_copy(
                    block, donor, [node], reason="rebalance"
                )
                if not ok:
                    return
                # The copy committed node as a new holder; retire the
                # donor's replica to complete the move.
                live = self.namenode.get_block_locations(block.block_id)
                if node in live and donor in live and len(live) > 1:
                    self.namenode.remove_block_replica(block.block_id, donor)
                    self.namenode.datanode(donor).drop_block(block.block_id)
                    self._count("rebalance_moves")
                    obs = self.obs
                    if obs is not None:
                        obs.on_repair_drop(block.block_id, donor, "rebalance")
                else:
                    # A concurrent chain re-homed the donor's replica while
                    # our copy was in flight, so the move degenerated into a
                    # plain extra copy.  Thin it back to target — nothing
                    # else revisits excess after a join.
                    self._thin_block(block.block_id)
        finally:
            self._rebalancing.discard(node)

    def _pick_rebalance_move(self, node: str):
        nn = self.namenode
        try:
            dn = nn.datanode(node)
        except Exception:
            return None
        if not dn.alive or node in self._decommissioning:
            return None
        counts = {
            d.name: 0
            for d in nn.live_datanodes()
            if d.name not in self._decommissioning
        }
        if node not in counts or len(counts) < 2:
            return None
        blocks_by_holder: Dict[str, List[Block]] = {n: [] for n in counts}
        total = 0
        for path in nn.list_files():
            for block in nn.get_file(path).blocks:
                for holder in nn.get_block_locations(block.block_id):
                    if holder in counts:
                        counts[holder] += 1
                        total += 1
                        blocks_by_holder[holder].append(block)
        fair = total // len(counts)
        if counts[node] >= fair:
            return None
        for donor in sorted(counts, key=lambda n: (-counts[n], n)):
            if donor == node or counts[donor] <= fair:
                continue
            donor_dn = nn.datanode(donor)
            bottom = donor_dn.tiers.bottom.spec.name
            for block in sorted(blocks_by_holder[donor], key=lambda b: b.block_id):
                if node in nn.block_replicas(block.block_id):
                    continue
                tier = donor_dn.block_tier(block.block_id)
                if tier is not None and tier != bottom:
                    continue  # never move an upward-migrated replica
                if dn.disk_used + block.nbytes > dn.disk_capacity:
                    continue
                return donor, block
        return None

    # -- decommission ------------------------------------------------------------

    def _drain(self, node: str, done: Event):
        """Copy every block the node holds whose replication would drop
        below target on release, then succeed ``done``.  Parks on
        topology changes whenever no progress is possible."""
        start = self.env.now
        failures = 0
        moved = 0
        while True:
            if not self.enabled:
                yield self._wait_topology()
                continue
            nn = self.namenode
            try:
                dn = nn.datanode(node)
            except Exception:
                # Node vanished from the namespace (e.g. killed and
                # removed); nothing left to drain but the decommission
                # can never complete cleanly.
                self._decommissioning.pop(node, None)
                return
            if not dn.alive:
                # Died mid-drain; resume if it restarts.
                yield self._wait_topology()
                continue
            pending = self._drain_pending(node)
            if not pending:
                self._decommissioning.pop(node, None)
                self._count("decommissions_completed")
                obs = self.obs
                if obs is not None:
                    obs.on_repair_decommission(node, start, moved)
                done.succeed((node, moved))
                self._notify_topology()
                return
            progressed = False
            for block in pending:
                if block.block_id in self._repairing:
                    continue  # a failure-repair is already copying it
                candidates = self._repair_candidates(block)
                if not candidates:
                    continue
                targets = self._sample_targets(candidates, 1)
                ok = yield from self._chain_copy(
                    block, node, targets, reason="decommission"
                )
                if ok:
                    progressed = True
                    moved += 1
            if progressed:
                failures = 0
                continue
            failures += 1
            if failures > MAX_RETRIES:
                yield self._wait_topology()
                failures = 0
                continue
            self._count("copy_retries")
            yield self.env.timeout(_retry_delay(failures))

    def _drain_pending(self, node: str) -> List[Block]:
        """Blocks on ``node`` that would fall below their replication
        factor if the node were released right now.

        Deliberately NOT capped by the live-node count: a decommission
        must never complete while any block would end below its full
        replication factor, even if the shrunken cluster could not hold
        more replicas anyway.  In that situation the drain parks until
        a join (or restart) makes the release safe — exactly HDFS's
        decommission-stuck-in-progress behavior."""
        nn = self.namenode
        pending: List[Block] = []
        for path in nn.list_files():
            metadata = nn.get_file(path)
            required = metadata.replication
            for block in metadata.blocks:
                if node not in nn.block_replicas(block.block_id):
                    continue
                safe = [
                    n
                    for n in nn.get_block_locations(block.block_id)
                    if n != node and n not in self._decommissioning
                ]
                if len(safe) < required:
                    pending.append(block)
        return pending

    # -- shared copy mechanics ---------------------------------------------------

    def _repair_candidates(self, block: Block) -> List[str]:
        holders = set(self.namenode.block_replicas(block.block_id))
        return [
            dn.name
            for dn in self.namenode.live_datanodes()
            if dn.name not in holders
            and dn.name not in self._decommissioning
            and dn.disk_used + block.nbytes <= dn.disk_capacity
        ]

    def _sample_targets(self, candidates: Sequence[str], k: int) -> List[str]:
        ordered = sorted(candidates)
        if len(ordered) <= k:
            return ordered
        return self.rng.sample(ordered, k)

    def _read_from(self, source: str, block: Block) -> Event:
        dn = self.namenode.datanode(source)
        if not dn.alive or not dn.has_block(block.block_id):
            raise DataNodeError(f"repair source {source} lost {block.block_id}")
        return dn.disk.transfer(block.nbytes, tag=("repair-read", block.block_id))

    def _acquire(self, source: str, targets: Sequence[str]):
        while True:
            busy = self._active_by_source.get(source, 0) >= MAX_COPIES_PER_SOURCE
            if not busy:
                busy = any(
                    self._active_by_target.get(t, 0) >= MAX_COPIES_PER_TARGET
                    for t in targets
                )
            if not busy:
                break
            yield self.env.timeout(POLL_INTERVAL)
        self._active_by_source[source] = self._active_by_source.get(source, 0) + 1
        for t in targets:
            self._active_by_target[t] = self._active_by_target.get(t, 0) + 1

    def _release(self, source: str, targets: Sequence[str]) -> None:
        self._active_by_source[source] -= 1
        for t in targets:
            self._active_by_target[t] -= 1

    def _replication_state(self, block_id: str):
        """(target, live_holders) for a block, or None if it no longer
        exists in the namespace."""
        nn = self.namenode
        if not nn.is_block(block_id):
            return None
        expected = self._expected.get(block_id)
        if expected is None:
            for path in nn.list_files():
                metadata = nn.get_file(path)
                for blk in metadata.blocks:
                    self._expected[blk.block_id] = metadata.replication
            expected = self._expected.get(block_id)
            if expected is None:
                return None
        target = min(expected, len(nn.live_datanodes()))
        return target, nn.get_block_locations(block_id)

    # -- topology parking --------------------------------------------------------

    def _wait_topology(self) -> Event:
        """An event that fires at the next topology change (failure,
        restart, join, committed repair, or decommission completion).
        Parking on it instead of polling lets the sim drain when nothing
        else can happen."""
        event = Event(self.env)
        self._topology_waiters.append(event)
        return event

    def _notify_topology(self) -> None:
        waiters, self._topology_waiters = self._topology_waiters, []
        for event in waiters:
            event.succeed(None)

    def retry_stalled(self) -> None:
        """External nudge (e.g. a network loss window ending): wake every
        parked repair/drain so it re-examines the cluster."""
        self._notify_topology()
        if self.enabled:
            self._schedule_repairs()

    # -- counters ----------------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        self.registry.counter(f"dfs.repair.{name}").inc(n)
