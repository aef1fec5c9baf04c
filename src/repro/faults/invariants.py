"""Post-run invariant checking: the paper's guarantees, asserted.

After every run — faulty or clean — the :class:`InvariantChecker`
verifies that the system's correctness properties survived:

1. **Do-not-harm (III-A3).**  No slave's migrated-bytes ever exceeded its
   buffer capacity, and with ``do_not_harm`` enabled no migrated block
   was preempted to admit another.
2. **No dangling references (III-A4).**  After job completion plus a
   forced liveness sweep, every remaining reference-list entry belongs to
   a job the scheduler still knows; a fully drained run holds zero.
3. **No data loss while replication >= 2.**  A block of a file with
   replication factor >= 2 must keep at least one live replica whenever
   fewer nodes are simultaneously down than its replication factor
   (checked at crash instants by the injector and again at end of run).
4. **Byte/accounting conservation.**  Per node, completed-migration bytes
   minus eviction bytes equals the slave's ``migrated_bytes``, which in
   turn equals the byte-sum of its resident migrated blocks and the last
   recorded memory sample.
5. **Memory-locality index equivalence.**  The push-maintained NameNode
   index equals a brute-force recomputation from the DataNode caches —
   node failures must leave no stale entries.
6. **Replication restored.**  At end of run, no surviving block is left
   under-replicated: every block with at least one live replica holds
   ``min(replication, live_nodes)`` live replicas, and no holder appears
   twice in a block's location list.  This is the invariant a permanent
   node loss (crash with no restart) used to slip past — self-healing
   re-replication is what upholds it.

Violations are returned as human-readable strings; an empty list means
the run upheld every guarantee.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Set

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import Cluster
    from ..dfs.namenode import NameNode
    from .injector import FaultInjector

#: Float-noise tolerance for byte accounting (fractional final blocks).
_BYTE_TOLERANCE = 1.0


def data_loss_violations(
    namenode: "NameNode", down_nodes: Set[str], when: float
) -> List[str]:
    """Blocks that lost every live replica although their replication
    factor should have tolerated the current number of down nodes."""
    violations: List[str] = []
    concurrent_down = len(down_nodes)
    for path in namenode.list_files():
        metadata = namenode.get_file(path)
        if metadata.replication < 2 or concurrent_down >= metadata.replication:
            # Replication 1 has no failure tolerance to guarantee, and
            # losing as many nodes as there are replicas may legitimately
            # take out all of them.
            continue
        for block in metadata.blocks:
            if not namenode.get_block_locations(block.block_id):
                violations.append(
                    f"data loss: {block.block_id} ({path}) has zero live "
                    f"replicas at t={when:.3f} with only {concurrent_down} "
                    f"node(s) down and replication={metadata.replication}"
                )
    return violations


def replication_violations(namenode: "NameNode", when: float) -> List[str]:
    """Blocks left under-replicated (or double-listed) at ``when``.

    The target is capped by the live-node count — a 3-node cluster with
    one node down cannot hold 3 replicas of anything, and that is not
    the repair machinery's fault.  Blocks with zero live replicas are
    data loss, judged separately by :func:`data_loss_violations`.
    """
    violations: List[str] = []
    live_nodes = len(namenode.live_datanodes())
    for path in namenode.list_files():
        metadata = namenode.get_file(path)
        target = min(metadata.replication, live_nodes)
        for block in metadata.blocks:
            holders = namenode.block_replicas(block.block_id)
            if len(holders) != len(set(holders)):
                violations.append(
                    f"replication: {block.block_id} ({path}) lists a "
                    f"holder twice ({holders}) at t={when:.3f}"
                )
            live = namenode.get_block_locations(block.block_id)
            if 0 < len(live) < target:
                violations.append(
                    f"under-replication: {block.block_id} ({path}) has "
                    f"{len(live)} live replica(s) but needs {target} "
                    f"(replication={metadata.replication}, "
                    f"{live_nodes} live nodes) at t={when:.3f}"
                )
    return violations


class InvariantChecker:
    """Checks the paper's guarantees against a finished cluster."""

    def __init__(self, cluster: "Cluster"):
        self.cluster = cluster

    def check(self, injector: "FaultInjector" = None) -> List[str]:
        """Run every invariant; returns all violations (empty = clean).

        Pass the run's :class:`FaultInjector` to include the data-loss
        violations it recorded at crash instants and to exempt nodes
        still down at end of run from the end-state checks.
        """
        down: Set[str] = injector.down_nodes if injector is not None else set()
        violations: List[str] = []
        if injector is not None:
            violations.extend(injector.violations)
        violations.extend(self.check_do_not_harm())
        violations.extend(self.check_reference_lists())
        violations.extend(self.check_byte_accounting())
        violations.extend(self.check_memory_index())
        violations.extend(
            data_loss_violations(
                self.cluster.namenode, down, when=self.cluster.env.now
            )
        )
        violations.extend(
            replication_violations(
                self.cluster.namenode, when=self.cluster.env.now
            )
        )
        return violations

    # -- individual invariants ----------------------------------------------------

    def check_do_not_harm(self) -> List[str]:
        violations: List[str] = []
        for name, slave in sorted(self.cluster.ignem_slaves.items()):
            timelines = slave.tier_usage_timeline
            for tier in sorted(timelines):
                capacity = slave.config.buffer_capacity_for(tier)
                peak = max(usage for _, usage in timelines[tier])
                if peak > capacity + _BYTE_TOLERANCE:
                    violations.append(
                        f"do-not-harm: {name} tier {tier!r} peaked at "
                        f"{peak:.0f} bytes, over its {capacity:.0f}-byte "
                        f"buffer capacity"
                    )
        if any(
            slave.config.do_not_harm
            for slave in self.cluster.ignem_slaves.values()
        ):
            preempted = [
                record
                for record in self.cluster.collector.evictions
                if record.reason == "preempted"
            ]
            if preempted:
                violations.append(
                    f"do-not-harm: {len(preempted)} migrated block(s) were "
                    "preempted although do_not_harm is enabled"
                )
        return violations

    def check_reference_lists(self) -> List[str]:
        """No reference held by a job the scheduler has forgotten.

        Run after the final forced liveness sweep: anything the sweep
        could not justify by a live job is a leak.
        """
        violations: List[str] = []
        rm = self.cluster.rm
        for name, slave in sorted(self.cluster.ignem_slaves.items()):
            for block_id, jobs in sorted(slave.referenced_blocks().items()):
                dead = sorted(job for job in jobs if not rm.job_active(job))
                if dead:
                    violations.append(
                        f"dangling references: {name} still holds refs on "
                        f"{block_id} for finished job(s) {', '.join(dead)}"
                    )
        return violations

    def check_byte_accounting(self) -> List[str]:
        violations: List[str] = []
        migrated_by_node: Dict[str, float] = {}
        for record in self.cluster.collector.migrations:
            if record.outcome == "completed":
                migrated_by_node[record.node] = (
                    migrated_by_node.get(record.node, 0.0) + record.nbytes
                )
        evicted_by_node: Dict[str, float] = {}
        for record in self.cluster.collector.evictions:
            evicted_by_node[record.node] = (
                evicted_by_node.get(record.node, 0.0) + record.nbytes
            )
        for name, slave in sorted(self.cluster.ignem_slaves.items()):
            expected = migrated_by_node.get(name, 0.0) - evicted_by_node.get(
                name, 0.0
            )
            if abs(expected - slave.migrated_bytes) > _BYTE_TOLERANCE:
                violations.append(
                    f"byte conservation: {name} accounts {slave.migrated_bytes:.0f} "
                    f"bytes but metrics say {expected:.0f} "
                    "(completed migrations minus evictions)"
                )
            resident = slave.resident_bytes()
            if abs(resident - slave.migrated_bytes) > _BYTE_TOLERANCE:
                violations.append(
                    f"byte conservation: {name} counts {slave.migrated_bytes:.0f} "
                    f"migrated bytes but its blocks sum to {resident:.0f}"
                )
        return violations

    def check_memory_index(self) -> List[str]:
        """Push-maintained locality index == brute-force recomputation.

        Checked per upper tier: a block cached in a middle (e.g. SSD)
        tier must appear in that tier's index and *not* in the memory
        index.
        """
        namenode = self.cluster.namenode
        expected: Dict[str, Dict[str, Set[str]]] = {}
        tier_names: Set[str] = set()
        for name, datanode in self.cluster.datanodes.items():
            for tier in datanode.tiers.upper:
                tier_names.add(tier.spec.name)
                per_tier = expected.setdefault(tier.spec.name, {})
                for key in tier.cache.resident_keys():
                    if namenode.is_block(key):
                        per_tier.setdefault(key, set()).add(name)
        violations: List[str] = []
        for tier_name in sorted(tier_names):
            actual = {
                block_id: set(nodes)
                for block_id, nodes in namenode.locality_index.blocks(
                    tier_name
                ).items()
            }
            want_map = expected.get(tier_name, {})
            for block_id in sorted(set(want_map) | set(actual)):
                want = want_map.get(block_id, set())
                have = actual.get(block_id, set())
                if want != have:
                    violations.append(
                        f"memory index: {block_id} indexed on "
                        f"{sorted(have)} in tier {tier_name!r} but "
                        f"actually resident on {sorted(want)}"
                    )
        return violations
