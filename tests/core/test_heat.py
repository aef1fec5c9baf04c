"""Unit and integration tests for hint-free popularity-driven migration."""

import pytest

from repro.core.heat import (
    MAX_TRACKED,
    OWNER,
    HeatConfig,
    HeatEstimator,
    PromotionCandidate,
    plan_promotions,
)
from repro.dfs.blocks import Block
from repro.sim.events import chain_arrivals
from repro.storage import MB
from tests.fixtures import make_ignem_cluster


def _block(index, nbytes=64 * MB, path="/hot/data"):
    return Block(
        block_id=f"{path}#blk{index}", path=path, index=index, nbytes=nbytes
    )


class TestHeatConfig:
    def test_defaults_valid(self):
        HeatConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"half_life": 0.0},
            {"tick_interval": -1.0},
            {"tenant_tick_bytes": 0.0},
            {"half_life": -1.0},
            {"tick_interval": 0.0},
            {"tenant_tick_bytes": -1.0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            HeatConfig(**kwargs)


class TestHeatEstimator:
    def test_first_read_scores_one(self):
        estimator = HeatEstimator(half_life=10.0)
        estimator.record(_block(0), "a", now=5.0)
        assert estimator.heat(_block(0).block_id, 5.0) == pytest.approx(1.0)

    def test_heat_decays_by_half_each_half_life(self):
        estimator = HeatEstimator(half_life=10.0)
        estimator.record(_block(0), "a", now=0.0)
        assert estimator.heat(_block(0).block_id, 10.0) == pytest.approx(0.5)
        assert estimator.heat(_block(0).block_id, 20.0) == pytest.approx(0.25)

    def test_repeated_reads_accumulate(self):
        estimator = HeatEstimator(half_life=1000.0)
        bid = _block(0).block_id
        for t in range(5):
            estimator.record(_block(0), "a", now=float(t))
        assert estimator.heat(bid, 4.0) > 4.9  # ~5 with negligible decay

    def test_untracked_block_is_cold(self):
        estimator = HeatEstimator()
        assert estimator.heat("nope", 0.0) == 0.0
        assert estimator.max_heat(0.0) == 0.0

    def test_late_event_equals_in_order_event(self):
        in_order = HeatEstimator(half_life=10.0)
        reordered = HeatEstimator(half_life=10.0)
        block = _block(0)
        for t in (1.0, 4.0, 9.0):
            in_order.record(block, "a", now=t)
        for t in (9.0, 1.0, 4.0):
            reordered.record(block, "a", now=t)
        assert in_order.heat(block.block_id, 9.0) == pytest.approx(
            reordered.heat(block.block_id, 9.0)
        )

    def test_dominant_tenant_by_count_then_name(self):
        estimator = HeatEstimator(half_life=1000.0)
        block = _block(0)
        estimator.record(block, "b", now=0.0)
        estimator.record(block, "b", now=1.0)
        estimator.record(block, "a", now=2.0)
        assert estimator.dominant_tenant(block.block_id) == "b"
        estimator.record(block, "a", now=3.0)
        # Tied 2-2: lexicographically first tenant wins, deterministically.
        assert estimator.dominant_tenant(block.block_id) == "a"
        assert estimator.dominant_tenant("untracked") is None

    def test_heats_match_per_block_heat(self):
        estimator = HeatEstimator(half_life=10.0)
        estimator.record(_block(0), "a", now=0.0)
        for _ in range(3):
            estimator.record(_block(1), "a", now=4.0)
        estimator.record(_block(2), "a", now=9.0)
        for now in (9.0, 12.5):
            assert estimator.heats(now) == {
                _block(i).block_id: estimator.heat(_block(i).block_id, now)
                for i in range(3)
            }
        assert estimator.max_heat(12.5) == estimator.heat(_block(1).block_id, 12.5)
        assert HeatEstimator().heats(0.0) == {}

    def test_max_tracked_drops_coldest(self):
        estimator = HeatEstimator(half_life=1000.0)
        # Blocks 0..MAX_TRACKED-1 get one read each, block 1 a second.
        for index in range(MAX_TRACKED):
            estimator.record(_block(index), "a", now=0.0)
        estimator.record(_block(1), "a", now=0.0)
        assert estimator.tracked() == MAX_TRACKED
        estimator.record(_block(MAX_TRACKED), "a", now=0.0)  # overflow
        # The coldest tenth went (single-read ties fall by block id); the
        # twice-read block stayed.
        assert estimator.tracked() == MAX_TRACKED - MAX_TRACKED // 10 + 1
        assert estimator.heat(_block(0).block_id, 0.0) == 0.0
        assert estimator.heat(_block(1).block_id, 0.0) == 2.0

    def test_forget_clears_all_state(self):
        estimator = HeatEstimator()
        block = _block(0)
        estimator.record(block, "a", now=0.0)
        estimator.forget(block.block_id)
        assert estimator.tracked() == 0
        assert estimator.heat(block.block_id, 0.0) == 0.0
        assert estimator.block(block.block_id) is None
        assert estimator.dominant_tenant(block.block_id) is None


class TestPlanPromotions:
    def test_fairness_cap_binds_per_tenant(self):
        candidates = [
            PromotionCandidate(_block(i, nbytes=60 * MB), "a")
            for i in range(4)
        ]
        granted, spend, overflow = plan_promotions(
            candidates, 128 * MB, 10_000 * MB, 0.0
        )
        assert len(granted) == 2
        assert spend["a"] == pytest.approx(120 * MB)
        assert [reason for _c, reason in overflow] == ["fairness"] * 2

    def test_admission_cap_binds_across_tenants(self):
        candidates = [
            PromotionCandidate(_block(i, nbytes=60 * MB), f"t{i}")
            for i in range(4)
        ]
        granted, _spend, overflow = plan_promotions(
            candidates, 10_000 * MB, 130 * MB, 0.0
        )
        assert len(granted) == 2
        assert [reason for _c, reason in overflow] == ["admission"] * 2

    def test_outstanding_bytes_count_against_admission(self):
        candidates = [PromotionCandidate(_block(0, nbytes=60 * MB), "a")]
        granted, _spend, overflow = plan_promotions(
            candidates, 10_000 * MB, 100 * MB, 90 * MB
        )
        assert not granted
        assert overflow[0][1] == "admission"


def _read_pulse(cluster, blocks, times, tenant="tenant0", reader="node0"):
    """Schedule one read of every block at each absolute time."""

    def pulse(_item):
        for block in blocks:
            cluster.client.read_block(block, reader, tenant=tenant)

    chain_arrivals(cluster.env, ((time, None) for time in times), pulse)


class TestPopularityMigrator:
    def _cluster(self, **heat_kwargs):
        cluster = make_ignem_cluster(buffer_capacity=2048 * MB)
        heat_kwargs.setdefault("half_life", 30.0)
        heat_kwargs.setdefault("tick_interval", 1.0)
        migrator = cluster.enable_heat_migration(HeatConfig(**heat_kwargs))
        return cluster, migrator

    def test_hot_blocks_promote_then_cool_and_demote(self):
        cluster, migrator = self._cluster(half_life=5.0)
        metadata = cluster.client.create_file("/hot/file", 128 * MB)
        _read_pulse(cluster, metadata.blocks, [1.0, 2.0, 3.0])
        cluster.run()
        # env.run() returned: the migrator promoted on heat, demoted as
        # the blocks cooled, then parked (quiescence terminates the sim).
        registry = cluster.metrics
        promotions = registry.counter("heat.policy.promotions").value
        demotions = registry.counter("heat.policy.demotions").value
        assert promotions == len(metadata.blocks)
        assert demotions == promotions
        assert not migrator.promoted
        # All promoted bytes were returned on demotion.
        for slave in cluster.ignem_slaves.values():
            assert slave.migrated_bytes == pytest.approx(0.0)

    def test_promoted_blocks_served_from_ram_while_hot(self):
        cluster, migrator = self._cluster(half_life=1000.0)
        metadata = cluster.client.create_file("/hot/file", 64 * MB)
        block = metadata.blocks[0]
        _read_pulse(cluster, [block], [1.0, 2.0, 3.0])
        # Let the promotion land, then read again while still hot.
        sources = []

        def late_read(event):
            yield event
            read = cluster.client.read_block(block, "node0", tenant="t")
            sources.append(read.source)

        cluster.env.process(
            late_read(cluster.env.timeout(30.0)), name="late-read"
        )
        cluster.env.run(until=40.0)
        assert block.block_id in migrator.promoted
        assert sources == ["ram"]
        migrator.shutdown()
        cluster.run()

    def test_shutdown_returns_cluster_to_clean_state(self):
        cluster, migrator = self._cluster(half_life=1000.0)
        metadata = cluster.client.create_file("/hot/file", 128 * MB)
        _read_pulse(cluster, metadata.blocks, [1.0, 2.0, 3.0])
        cluster.env.run(until=20.0)
        assert migrator.promoted
        migrator.shutdown()
        cluster.run()
        for slave in cluster.ignem_slaves.values():
            slave.cleanup_dead_jobs(force=True)
            assert slave.migrated_bytes == pytest.approx(0.0)
            assert not slave.referenced_blocks()
        assert not cluster.rm.job_active(OWNER)

    def test_no_reads_means_no_ticks_and_clean_termination(self):
        cluster, _migrator = self._cluster()
        cluster.client.create_file("/cold/file", 128 * MB)
        cluster.run()  # must terminate: the policy parks immediately
        assert cluster.metrics.counter("heat.policy.ticks").value == 0

    def test_tenant_fairness_cap_splits_promotion_wave(self):
        cluster, migrator = self._cluster(
            half_life=1000.0, tenant_tick_bytes=70 * MB
        )
        metadata = cluster.client.create_file("/hot/file", 256 * MB)
        _read_pulse(cluster, metadata.blocks, [1.0, 2.0, 3.0], tenant="t0")
        cluster.env.run(until=30.0)
        assert migrator.fairness_log
        for entry in migrator.fairness_log:
            for tenant, granted in entry["granted"].items():
                assert granted <= 70 * MB
        # Everything eventually promoted across several ticks.
        assert len(migrator.promoted) == len(metadata.blocks)
        migrator.shutdown()
        cluster.run()

    def test_requires_ignem(self):
        from repro import Cluster, ClusterConfig

        cluster = Cluster(ClusterConfig(num_nodes=2))
        with pytest.raises(RuntimeError):
            cluster.enable_heat_migration()

    def test_cannot_enable_twice(self):
        cluster, _migrator = self._cluster()
        with pytest.raises(RuntimeError):
            cluster.enable_heat_migration()
