"""End-of-run invariant oracles over a finished DST scenario.

Every oracle is a pure function ``(OracleContext) -> List[str]`` over
the run's artifacts: the live cluster and its collector's records, the
differential checker's delivery log, and the fault injector's applied
schedule.  :data:`ALL_ORACLES` is the one table of the paper's
guarantees, one check each: the differential model (III-A1),
do-not-harm and the buffer cap (III-A3, III-B2), end-state liveness of
reference lists (III-A4), post-crash silence (III-A5), byte and record
conservation, locality-index equivalence, replication restored, no
data loss, and tenant fairness.  Oracles judge against the
**scenario's declared expectations** — the configs the scenario holds
(``scenario.ignem.do_not_harm``, ``scenario.ignem.buffer_capacity``,
``scenario.serve.heat_config.tenant_tick_bytes``), never against the
configs the live slaves hold — so a sabotaged build that installs a
different config at runtime is still convicted by the spec it shipped
with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

from ..faults.invariants import data_loss_violations, replication_violations
from .model import DifferentialChecker
from .scenario import Scenario

#: Float slack for byte sums built from fractional final blocks.
_BYTE_TOLERANCE = 1.0
#: Slack around fault instants when classifying records.
_TIME_EPS = 1e-5


@dataclass
class OracleContext:
    """Everything the oracles may look at after a run."""

    scenario: Scenario
    cluster: object
    checker: DifferentialChecker
    injector: object
    #: (time, node) pairs at which the live slave's queue was purged.
    purges: Sequence[Tuple[float, str]]
    #: node -> [(down_at, up_at)] whole-server outage windows.
    down_windows: Dict[str, List[Tuple[float, float]]]


@dataclass(frozen=True)
class OracleReport:
    name: str
    violations: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def oracle_differential(ctx: OracleContext) -> List[str]:
    """Replay the reference model against the migration and eviction
    records (III-A1)."""
    collector = ctx.cluster.collector
    return list(
        ctx.checker.replay(
            collector.migrations, collector.evictions, ctx.purges
        )
    )


def oracle_do_not_harm(ctx: OracleContext) -> List[str]:
    """III-A3: migrated data is never evicted to admit new blocks."""
    if not ctx.scenario.ignem.do_not_harm:
        return []
    violations = []
    for record in ctx.cluster.collector.evictions:
        if record.reason == "preempted":
            violations.append(
                f"{record.node}: block {record.block_id} "
                f"({record.nbytes:.0f}B) evicted to admit newer work at "
                f"t={record.time:.3f} despite the scenario's do-not-harm "
                f"guarantee"
            )
    return violations


def oracle_buffer_cap(ctx: OracleContext) -> List[str]:
    """III-B2: per-slave, per-tier migrated bytes never exceed the
    declared cap.

    Uses each slave's exact per-tier usage timelines against the
    *scenario's* capacity, so a build that silently raises the real cap
    is caught.  The scenario declares exactly one destination tier
    (``migration_tier``); migrated bytes accumulating in any other tier
    are a violation outright.
    """
    cap = ctx.scenario.ignem.buffer_capacity
    declared = ctx.scenario.ignem.migration_tier
    violations = []
    for name in sorted(ctx.cluster.ignem_slaves):
        timelines = ctx.cluster.ignem_slaves[name].tier_usage_timeline
        for tier in sorted(timelines):
            timeline = timelines[tier]
            peak_time, peak = max(timeline, key=lambda tb: tb[1])
            if tier != declared:
                if peak > _BYTE_TOLERANCE:
                    violations.append(
                        f"{name}: {peak:.0f} migrated bytes "
                        f"(t={peak_time:.3f}) in tier {tier!r}, which the "
                        f"scenario never declared as a destination"
                    )
            elif peak > cap + _BYTE_TOLERANCE:
                violations.append(
                    f"{name}: tier {tier!r} migrated bytes peaked at "
                    f"{peak:.0f} (t={peak_time:.3f}) above the scenario's "
                    f"buffer cap {cap:.0f}"
                )
    return violations


def oracle_end_state(ctx: OracleContext) -> List[str]:
    """After full drain + forced sweep, no references, bytes, or queued
    work may survive on a live slave (III-A4 liveness), and a down slave
    holds no reference of a finished job (crash purges, III-A5)."""
    violations = []
    rm = ctx.cluster.rm
    for name in sorted(ctx.cluster.ignem_slaves):
        slave = ctx.cluster.ignem_slaves[name]
        refs = slave.referenced_blocks()
        if not slave.alive:
            # A down slave gets no forced sweep, but its crash purge must
            # still have dropped every reference of a finished job.
            for block_id, jobs in sorted(refs.items()):
                dead = sorted(job for job in jobs if not rm.job_active(job))
                if dead:
                    violations.append(
                        f"{name}: down slave still holds refs on "
                        f"{block_id} for finished job(s) {', '.join(dead)}"
                    )
            continue
        if refs:
            held = {job for jobs in refs.values() for job in jobs}
            violations.append(
                f"{name}: {len(refs)} block(s) still referenced by "
                f"{sorted(held)} after drain + forced sweep"
            )
        if slave.migrated_bytes > _BYTE_TOLERANCE:
            violations.append(
                f"{name}: {slave.migrated_bytes:.0f} migrated bytes "
                f"resident after every job finished"
            )
        if slave.pending_migrations:
            violations.append(
                f"{name}: {slave.pending_migrations} migration(s) still "
                f"queued after full drain (work conservation)"
            )
        for block_id in slave._migrated:
            if not slave.reference_list(block_id):
                violations.append(
                    f"{name}: block {block_id} resident with an empty "
                    f"reference list (evicted-then-still-held leak)"
                )
    return violations


def oracle_post_crash(ctx: OracleContext) -> List[str]:
    """III-A5: a crashed slave is silent and empty until its restart."""
    violations = []

    def in_outage(node: str, when: float) -> bool:
        for down_at, up_at in ctx.down_windows.get(node, ()):
            if down_at + _TIME_EPS < when < up_at - _TIME_EPS:
                return True
        return False

    collector = ctx.cluster.collector
    for record in collector.migrations:
        if in_outage(record.node, record.start):
            violations.append(
                f"{record.node}: migration of {record.block_id} "
                f"({record.outcome}) at t={record.start:.3f} while the "
                f"server was down"
            )
    for record in collector.evictions:
        if in_outage(record.node, record.time):
            violations.append(
                f"{record.node}: eviction of {record.block_id} at "
                f"t={record.time:.3f} while the server was down"
            )
    for item in ctx.checker.delivered:
        if in_outage(item.node, item.time):
            violations.append(
                f"{item.node}: migrate command for {item.job_id}/"
                f"{item.block_id} accepted at t={item.time:.3f} while "
                f"the server was down"
            )
    for when, node, job_id, _blocks in ctx.checker.evict_deliveries:
        if in_outage(node, when):
            violations.append(
                f"{node}: evict command for {job_id} accepted at "
                f"t={when:.3f} while the server was down"
            )
    return violations


def oracle_conservation(ctx: OracleContext) -> List[str]:
    """Bytes and counts must balance across the reporting paths: the
    collector's records, the slaves' byte ledgers, and the registry
    counters."""
    violations = []
    cluster = ctx.cluster
    collector = cluster.collector
    registry = cluster.metrics

    # (a) per-node byte balance: completed - evicted == migrated_bytes
    # == the byte-sum of the resident blocks.
    completed_bytes: Dict[str, float] = {}
    evicted_bytes: Dict[str, float] = {}
    record_outcomes: Dict[str, int] = {}
    for record in collector.migrations:
        record_outcomes[record.outcome] = (
            record_outcomes.get(record.outcome, 0) + 1
        )
        if record.outcome == "completed":
            completed_bytes[record.node] = (
                completed_bytes.get(record.node, 0.0) + record.nbytes
            )
    for record in collector.evictions:
        evicted_bytes[record.node] = (
            evicted_bytes.get(record.node, 0.0) + record.nbytes
        )
    for name in sorted(cluster.ignem_slaves):
        slave = cluster.ignem_slaves[name]
        balance = completed_bytes.get(name, 0.0) - evicted_bytes.get(name, 0.0)
        if abs(balance - slave.migrated_bytes) > _BYTE_TOLERANCE:
            violations.append(
                f"{name}: migrated-evicted byte balance {balance:.0f} != "
                f"migrated_bytes {slave.migrated_bytes:.0f}"
            )
        resident = slave.resident_bytes()
        if abs(resident - slave.migrated_bytes) > _BYTE_TOLERANCE:
            violations.append(
                f"{name}: migrated_bytes {slave.migrated_bytes:.0f} but "
                f"its resident blocks sum to {resident:.0f}"
            )

    # (b) registry counters agree with the records.
    counter_map = {
        "completed": "ignem.slave.migrations_completed",
        "skipped": "ignem.slave.migrations_skipped",
        "cancelled": "ignem.slave.migrations_cancelled",
    }
    for outcome, metric in counter_map.items():
        count = registry.counter(metric).value
        if count != record_outcomes.get(outcome, 0):
            violations.append(
                f"counter {metric}={count} != "
                f"{record_outcomes.get(outcome, 0)} {outcome} records"
            )
    eviction_reasons: Dict[str, int] = {}
    for record in collector.evictions:
        eviction_reasons[record.reason] = (
            eviction_reasons.get(record.reason, 0) + 1
        )
    for reason, count in sorted(eviction_reasons.items()):
        metric = f"ignem.slave.evictions.{reason}"
        if registry.counter(metric).value != count:
            violations.append(
                f"counter {metric}={registry.counter(metric).value} != "
                f"{count} eviction records"
            )

    # (c) every completed job actually read its whole input.
    reads_by_job: Dict[str, set] = {}
    for record in collector.block_reads:
        reads_by_job.setdefault(record.job_id, set()).add(record.block_id)
    for job in cluster.engine.jobs:
        if job.finished_at is None or job.failed:
            continue
        seen = reads_by_job.get(job.job_id, set())
        for path in job.spec.input_paths:
            for block in cluster.namenode.file_blocks(path):
                if block.block_id not in seen:
                    violations.append(
                        f"{job.job_id}: completed without reading block "
                        f"{block.block_id} of {path}"
                    )
    return violations


def oracle_locality_index(ctx: OracleContext) -> List[str]:
    """The push-maintained locality index equals a brute-force
    recomputation from the DataNode caches, per upper tier: node
    failures leave no stale entry, and a block cached in a middle (e.g.
    SSD) tier appears in that tier's index and not in the memory
    index."""
    cluster = ctx.cluster
    namenode = cluster.namenode
    expected: Dict[str, Dict[str, Set[str]]] = {}
    for name, datanode in cluster.datanodes.items():
        for tier in datanode.tiers.upper:
            per_tier = expected.setdefault(tier.spec.name, {})
            for key in tier.cache.resident_keys():
                if namenode.is_block(key):
                    per_tier.setdefault(key, set()).add(name)
    violations = []
    for tier_name in sorted(expected):
        want_map = expected[tier_name]
        have_map = namenode.locality_index.blocks(tier_name)
        for block_id in sorted(set(want_map) | set(have_map)):
            want = want_map.get(block_id, set())
            have = set(have_map.get(block_id, ()))
            if want != have:
                violations.append(
                    f"{block_id} indexed on {sorted(have)} in tier "
                    f"{tier_name!r} but resident on {sorted(want)}"
                )
    return violations


def oracle_replication(ctx: OracleContext) -> List[str]:
    """Replication factor restored: after full drain, every surviving
    block holds ``min(replication, live_nodes)`` live replicas on
    distinct nodes — kills and decommissions must have been healed by
    re-replication, and restarts must have had their excess thinned
    without double-listing a holder."""
    return replication_violations(
        ctx.cluster.namenode, when=ctx.cluster.env.now
    )


def oracle_no_data_loss(ctx: OracleContext) -> List[str]:
    """Zero lost blocks: every block of a ``replication >= 2`` file keeps
    at least one live replica, at each crash instant (as the injector
    recorded) and at end of run — unless at least as many servers as
    the file's replication factor are down at that instant, when all
    copies may be gone at once and no repair could have sourced one."""
    injector = ctx.injector
    return list(injector.violations) + data_loss_violations(
        ctx.cluster.namenode, injector.down_nodes, when=ctx.cluster.env.now
    )


def oracle_tenant_fairness(ctx: OracleContext) -> List[str]:
    """The heat policy's per-tenant promotion cap holds on every tick.

    Judged against the *scenario's* declared ``tenant_tick_bytes`` (not
    the live migrator's config) from the migrator's fairness audit log:
    no tick may grant a single tenant more promotion bytes than the cap.
    """
    serve = ctx.scenario.serve
    migrator = getattr(ctx.cluster, "heat_migrator", None)
    if serve is None or not serve.heat or migrator is None:
        return []
    cap = serve.heat_config.tenant_tick_bytes
    violations = []
    for entry in migrator.fairness_log:
        for tenant in sorted(entry["granted"]):
            granted = entry["granted"][tenant]
            if granted > cap + _BYTE_TOLERANCE:
                violations.append(
                    f"tick {entry['tick']} (t={entry['time']:.3f}): "
                    f"tenant {tenant!r} granted {granted:.0f} promotion "
                    f"bytes above the declared per-tick cap {cap:.0f}"
                )
    return violations


#: Registry: (name, fn) in evaluation order.
ALL_ORACLES = (
    ("differential", oracle_differential),
    ("do_not_harm", oracle_do_not_harm),
    ("buffer_cap", oracle_buffer_cap),
    ("end_state", oracle_end_state),
    ("post_crash", oracle_post_crash),
    ("conservation", oracle_conservation),
    ("locality_index", oracle_locality_index),
    ("replication", oracle_replication),
    ("no_data_loss", oracle_no_data_loss),
    ("tenant_fairness", oracle_tenant_fairness),
)


def run_oracles(ctx: OracleContext) -> List[OracleReport]:
    """Evaluate every oracle; returns one report per oracle."""
    return [
        OracleReport(name=name, violations=tuple(fn(ctx)))
        for name, fn in ALL_ORACLES
    ]
