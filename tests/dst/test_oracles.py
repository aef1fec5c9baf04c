"""Every oracle in ``ALL_ORACLES`` can fire.

An oracle that has never been seen to convict anything may check
nothing.  Each case drains the mixed-serve corpus scenario (serve
traffic, heat policy, a crash/restart, an HA failover), checks that the
clean run passes every oracle, plants one corruption in the finished
cluster (its records included) or in the judged artifacts, and asserts
the named oracle convicts it.  The corruption lives here, in the test, never behind a
flag in the product.
"""

import dataclasses
import pathlib

import pytest

from repro.dst import Scenario, run_oracles
from repro.dst.harness import drain_scenario
from repro.dst.oracles import ALL_ORACLES
from repro.faults import FaultEvent
from repro.metrics import EvictionRecord, MemorySample
from repro.storage import MB

CORPUS = pathlib.Path(__file__).parent / "corpus"
ORACLES = dict(ALL_ORACLES)


def drained_context():
    scenario = Scenario.load(CORPUS / "mixed-serve.json")
    context, _stats = drain_scenario(scenario)
    return context


def _some_slave(ctx):
    return ctx.cluster.ignem_slaves["node1"]


def _some_block(ctx, min_replication=1):
    namenode = ctx.cluster.namenode
    for path in namenode.list_files():
        metadata = namenode.get_file(path)
        if metadata.replication >= min_replication and metadata.blocks:
            return metadata.blocks[0]
    raise AssertionError("scenario has no such block")


def _finished_job(ctx):
    return next(
        job
        for job in ctx.cluster.engine.jobs
        if job.finished_at is not None and not job.failed
    )


# -- corruptions: each returns the (possibly replaced) context ---------------


def drop_migration_event(ctx):
    """A migration the slave performed vanishes from the records."""
    del ctx.cluster.collector.migrations[0]
    return ctx


def record_preempted_eviction(ctx):
    """Do-not-harm broken: a migrated block evicted to admit another."""
    ctx.cluster.collector.evictions.append(
        EvictionRecord("blk-x", "node1", 64 * MB, 1.0, "preempted", "mem")
    )
    return ctx


def overfill_declared_tier(ctx):
    cap = ctx.scenario.ignem.buffer_capacity
    tier = ctx.scenario.ignem.migration_tier
    ctx.cluster.collector.memory_samples.append(
        MemorySample("node1", 1.0, 2 * cap, tier, 2 * cap)
    )
    return ctx


def fill_undeclared_tier(ctx):
    """Migrated bytes land in a tier the scenario never declared."""
    assert ctx.scenario.ignem.migration_tier != "ssd"
    ctx.cluster.collector.memory_samples.append(
        MemorySample("node1", 1.0, 64 * MB, "ssd", 64 * MB)
    )
    return ctx


def leave_reference_on_live_slave(ctx):
    """An eviction that forgot to drop a reference (III-A4)."""
    block = _some_block(ctx)
    _some_slave(ctx)._refs[block.block_id] = {_finished_job(ctx).job_id}
    return ctx


def leave_reference_on_down_slave(ctx):
    """A crash purge that kept a finished job's reference (III-A5)."""
    slave = _some_slave(ctx)
    slave.alive = False
    slave._refs[_some_block(ctx).block_id] = {_finished_job(ctx).job_id}
    return ctx


def leave_queued_work(ctx):
    """A drained slave with a migration still queued (work conservation)."""
    queue = next(iter(_some_slave(ctx).tier_queues.values()))
    queue._heap.append((0, 0, "stale-item"))
    return ctx


def resident_block_without_reference(ctx):
    """A block kept in the buffer after its last reference was dropped."""
    _some_slave(ctx)._migrated["blk-orphan"] = 0.0
    return ctx


def _outage_around(ctx, node, when):
    windows = dict(ctx.down_windows)
    windows[node] = [(when - 1.0, when + 1.0)]
    return dataclasses.replace(ctx, down_windows=windows)


def migrate_during_outage(ctx):
    """A slave that kept migrating while its server was down."""
    record = ctx.cluster.collector.migrations[0]
    return _outage_around(ctx, record.node, record.start)


def evict_during_outage(ctx):
    """A slave that dropped a block while its server was down."""
    record = ctx.cluster.collector.evictions[0]
    return _outage_around(ctx, record.node, record.time)


def accept_evict_command_during_outage(ctx):
    """An evict command delivered to a server that was down."""
    when, node, _job_id, _blocks = ctx.checker.evict_deliveries[0]
    return _outage_around(ctx, node, when)


def skew_byte_balance(ctx):
    """Ledger drift: migrated_bytes no longer matches the records."""
    _some_slave(ctx).migrated_bytes += 10 * MB
    return ctx


def phantom_resident_block(ctx):
    """A block resident in the buffer that the ledger never counted."""
    _some_slave(ctx)._migrated["blk-phantom"] = 10 * MB
    return ctx


def bump_completed_counter(ctx):
    """A completed migration counted with no record behind it."""
    ctx.cluster.metrics.counter("ignem.slave.migrations_completed").inc()
    return ctx


def bump_eviction_counter(ctx):
    """An eviction counted with no record behind it."""
    reason = ctx.cluster.collector.evictions[0].reason
    ctx.cluster.metrics.counter(f"ignem.slave.evictions.{reason}").inc()
    return ctx


def lose_block_reads(ctx):
    """A completed job whose input reads were never recorded."""
    job_id = _finished_job(ctx).job_id
    reads = ctx.cluster.collector.block_reads
    reads[:] = [record for record in reads if record.job_id != job_id]
    return ctx


def ghost_index_entry(ctx):
    """A locality-index entry for a node that caches nothing."""
    block = _some_block(ctx)
    ctx.cluster.namenode.locality_index.update(
        "node1", "mem", block.block_id, True
    )
    return ctx


def double_list_holder(ctx):
    block = _some_block(ctx)
    holders = ctx.cluster.namenode._locations[block.block_id]
    holders.append(holders[0])
    return ctx


def lose_every_replica(ctx):
    """Replica thinning that dropped the last copy of a block."""
    block = _some_block(ctx, min_replication=2)
    ctx.cluster.namenode._locations[block.block_id].clear()
    return ctx


def lose_replicas_at_a_crash_instant(ctx):
    """Every replica gone when a server crashes; the copies come back
    before end of run, but the crash-instant finding must survive."""
    block = _some_block(ctx, min_replication=2)
    locations = ctx.cluster.namenode._locations[block.block_id]
    saved = list(locations)
    locations.clear()
    ctx.injector._apply(FaultEvent(ctx.cluster.env.now, "crash", "node4"))
    locations.extend(saved)
    return ctx


def overgrant_a_tenant(ctx):
    cap = ctx.scenario.serve.heat_config.tenant_tick_bytes
    ctx.cluster.heat_migrator.fairness_log.append(
        {"tick": 999, "time": 1.0, "granted": {"tenant0": 2 * cap}}
    )
    return ctx


CASES = [
    ("differential", drop_migration_event),
    ("do_not_harm", record_preempted_eviction),
    ("buffer_cap", overfill_declared_tier),
    ("buffer_cap", fill_undeclared_tier),
    ("end_state", leave_reference_on_live_slave),
    ("end_state", leave_reference_on_down_slave),
    ("end_state", leave_queued_work),
    ("end_state", resident_block_without_reference),
    ("post_crash", migrate_during_outage),
    ("post_crash", evict_during_outage),
    ("post_crash", accept_evict_command_during_outage),
    ("conservation", skew_byte_balance),
    ("conservation", phantom_resident_block),
    ("conservation", bump_completed_counter),
    ("conservation", bump_eviction_counter),
    ("conservation", lose_block_reads),
    ("locality_index", ghost_index_entry),
    ("replication", double_list_holder),
    ("no_data_loss", lose_every_replica),
    ("no_data_loss", lose_replicas_at_a_crash_instant),
    ("tenant_fairness", overgrant_a_tenant),
]


def test_every_oracle_has_a_case():
    assert {name for name, _ in CASES} == set(ORACLES)


def test_clean_run_passes_every_oracle():
    reports = run_oracles(drained_context())
    assert [report.name for report in reports] == list(ORACLES)
    assert all(report.ok for report in reports), reports


@pytest.mark.parametrize(
    "name, corrupt",
    CASES,
    ids=[f"{name}-{corrupt.__name__}" for name, corrupt in CASES],
)
def test_oracle_convicts_its_corruption(name, corrupt):
    ctx = drained_context()
    assert ORACLES[name](ctx) == []
    assert ORACLES[name](corrupt(ctx))
