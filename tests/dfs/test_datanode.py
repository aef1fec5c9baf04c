"""Tests for the DataNode read/write/migration paths."""

import pytest

from repro.dfs import Block, DataNode, DataNodeError
from repro.sim import Environment
from repro.storage import (
    GB,
    HDD_TIER,
    MB,
    MEM_TIER,
    NodeTier,
    NodeTierSet,
    TransferDevice,
    build_tier_set,
    tier_preset,
)


def make_node(env):
    disk = TransferDevice(env, "hdd-test", bandwidth=100 * MB)
    ram = TransferDevice(env, "ram-test", bandwidth=1000 * MB)
    tiers = NodeTierSet(
        [NodeTier(MEM_TIER, ram, 1 * GB), NodeTier(HDD_TIER, disk, 1024 * GB)]
    )
    return DataNode(env, "n0", tiers=tiers)


def block(nbytes=64 * MB, index=0):
    return Block(f"/f#blk{index}", "/f", index, nbytes)


class TestReadPath:
    def test_cold_read_comes_from_disk(self):
        env = Environment()
        node = make_node(env)
        blk = block()
        node.store_block(blk)
        results = {}

        def proc(env):
            handle = node.read_block(blk)
            yield handle.done
            results["source"] = handle.source
            results["time"] = env.now

        env.process(proc(env))
        env.run()
        assert results["source"] == "hdd"
        assert results["time"] == pytest.approx(0.64)

    def test_cached_read_comes_from_ram(self):
        env = Environment()
        node = make_node(env)
        blk = block()
        node.store_block(blk)
        results = {}

        def proc(env):
            yield node.migrate_block_to_tier(blk, "mem")
            handle = node.read_block(blk)
            yield handle.done
            results["source"] = handle.source

        env.process(proc(env))
        env.run()
        assert results["source"] == "ram"

    def test_reading_missing_block_raises(self):
        env = Environment()
        node = make_node(env)
        with pytest.raises(DataNodeError):
            node.read_block(block())

    def test_read_hook_invoked_with_job_id(self):
        env = Environment()
        node = make_node(env)
        blk = block()
        node.store_block(blk)
        calls = []
        node.on_block_read = lambda b, job_id: calls.append((b.block_id, job_id))

        def proc(env):
            handle = node.read_block(blk, job_id="job-7")
            yield handle.done

        env.process(proc(env))
        env.run()
        assert calls == [(blk.block_id, "job-7")]

    def test_jobless_read_never_calls_hook(self):
        env = Environment()
        node = make_node(env)
        blk = block()
        node.store_block(blk)
        calls = []
        node.on_block_read = lambda b, job_id: calls.append((b.block_id, job_id))

        handle = node.read_block(blk)
        assert handle.done.callbacks == []
        env.run()
        assert handle.done.processed
        assert calls == []

    def test_ssd_disk_reports_ssd_source(self):
        env = Environment()
        tiers = build_tier_set(env, tier_preset("mem-ssd"), "n0")
        node = DataNode(env, "n0", tiers=tiers)
        blk = block()
        node.store_block(blk)

        def proc(env):
            handle = node.read_block(blk)
            yield handle.done
            assert handle.source == "ssd"

        env.process(proc(env))
        env.run()


class TestMigration:
    def test_migration_pins_block(self):
        env = Environment()
        node = make_node(env)
        blk = block()
        node.store_block(blk)

        def proc(env):
            yield node.migrate_block_to_tier(blk, "mem")

        env.process(proc(env))
        env.run()
        assert node.block_in_memory(blk.block_id)
        assert node.cache.is_pinned(blk.block_id)
        # 64MB at 100MB/s.
        assert env.now == pytest.approx(0.64)

    def test_migrating_already_cached_block_is_instant(self):
        env = Environment()
        node = make_node(env)
        blk = block()
        node.store_block(blk)
        times = {}

        def proc(env):
            yield node.migrate_block_to_tier(blk, "mem")
            times["first"] = env.now
            yield node.migrate_block_to_tier(blk, "mem")
            times["second"] = env.now

        env.process(proc(env))
        env.run()
        assert times["second"] == times["first"]

    def test_migrating_missing_block_raises(self):
        env = Environment()
        node = make_node(env)
        with pytest.raises(DataNodeError):
            node.migrate_block_to_tier(block(), "mem")

    def test_evict_block_from_memory(self):
        env = Environment()
        node = make_node(env)
        blk = block()
        node.store_block(blk)

        def proc(env):
            yield node.migrate_block_to_tier(blk, "mem")

        env.process(proc(env))
        env.run()
        assert node.evict_block_from_tier(blk.block_id, "mem")
        assert not node.block_in_memory(blk.block_id)
        assert not node.evict_block_from_tier(blk.block_id, "mem")


class TestWritePath:
    def test_write_block_is_absorbed_instantly(self):
        env = Environment()
        node = make_node(env)
        blk = block()

        def proc(env):
            start = env.now
            yield node.write_block(blk)
            assert env.now == start  # absorbed by cache

        env.process(proc(env))
        env.run()
        assert node.has_block(blk.block_id)

    def test_write_generates_background_flush(self):
        env = Environment()
        node = make_node(env)
        blk = block()

        def proc(env):
            yield node.write_block(blk)

        env.process(proc(env))
        env.run()
        assert node.disk.bytes_moved == pytest.approx(64 * MB)


class TestFailure:
    def test_fail_drops_memory_but_not_disk(self):
        env = Environment()
        node = make_node(env)
        blk = block()
        node.store_block(blk)

        def proc(env):
            yield node.migrate_block_to_tier(blk, "mem")

        env.process(proc(env))
        env.run()
        node.fail()
        assert not node.alive
        assert node.cache.used_bytes == 0
        node.restart()
        assert node.has_block(blk.block_id)
        assert not node.block_in_memory(blk.block_id)

    def test_operations_on_dead_node_raise(self):
        env = Environment()
        node = make_node(env)
        blk = block()
        node.store_block(blk)
        node.fail()
        with pytest.raises(DataNodeError):
            node.read_block(blk)
        with pytest.raises(DataNodeError):
            node.migrate_block_to_tier(blk, "mem")
        with pytest.raises(DataNodeError):
            node.write_block(block(index=1))
        assert not node.has_block(blk.block_id)  # dead nodes serve nothing
