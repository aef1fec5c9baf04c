"""Tests for the Ignem slave: queueing, reference lists, do-not-harm."""

import pytest

from repro import IgnemConfig, JobSpec
from repro.storage import GB, MB
from repro.storage.presets import HDD_LATENCY

from .conftest import make_cluster


def migrate_and_run(cluster, paths, job_id, implicit=False):
    cluster.ignem_master.request_migration(paths, job_id, implicit_eviction=implicit)
    cluster.run()


def slave_holding(cluster, block_id):
    for slave in cluster.ignem_master.slaves():
        if slave.block_migrated(block_id):
            return slave
    return None


class TestMigrationBasics:
    def test_blocks_land_pinned_in_cache(self):
        cluster = make_cluster()
        cluster.client.create_file("/f", 128 * MB)
        migrate_and_run(cluster, ["/f"], "j1")
        for block in cluster.namenode.file_blocks("/f"):
            slave = slave_holding(cluster, block.block_id)
            assert slave is not None
            assert slave.datanode.cache.is_pinned(block.block_id)

    def test_one_block_at_a_time(self):
        """With a 10-block file assigned to one slave, migrations are
        serialized: total time ~= sum of sequential block reads at the
        disk's full sequential bandwidth."""
        cluster = make_cluster(num_nodes=1, replication=1)
        cluster.client.create_file("/f", 640 * MB)
        rate = cluster.datanodes["node0"].disk.bandwidth
        start = cluster.env.now
        migrate_and_run(cluster, ["/f"], "j1")
        elapsed = cluster.env.now - start
        assert elapsed == pytest.approx(
            640 * MB / rate + 10 * HDD_LATENCY, rel=0.05
        )
        # Disk never saw concurrent migration streams.
        slave = cluster.ignem_slaves["node0"]
        assert slave.migrated_bytes == 640 * MB

    def test_migration_records_emitted(self):
        cluster = make_cluster()
        cluster.client.create_file("/f", 192 * MB)
        migrate_and_run(cluster, ["/f"], "j1")
        completed = cluster.collector.completed_migrations()
        assert len(completed) == 3
        assert all(m.job_id == "j1" for m in completed)
        assert all(m.end > m.start for m in completed)

    def test_duplicate_job_refs_do_not_duplicate_memory(self):
        cluster = make_cluster()
        cluster.client.create_file("/f", 64 * MB)
        block = cluster.namenode.file_blocks("/f")[0]
        migrate_and_run(cluster, ["/f"], "j1")
        holder = slave_holding(cluster, block.block_id)
        before = holder.migrated_bytes
        # Second job requests the same file; master may choose the same
        # replica, in which case memory must not double-count.
        cluster.ignem_master.request_migration(["/f"], "j2")
        cluster.run()
        total = sum(s.migrated_bytes for s in cluster.ignem_master.slaves())
        assert total <= 2 * before  # at most one extra replica copy
        assert holder.migrated_bytes == before


class TestReferenceLists:
    def test_refs_added_on_command_receipt(self):
        cluster = make_cluster()
        cluster.client.create_file("/f", 64 * MB)
        block = cluster.namenode.file_blocks("/f")[0]
        cluster.ignem_master.request_migration(["/f"], "j1")
        cluster.ignem_master.request_migration(["/f"], "j2")
        cluster.run()
        holders = [
            s
            for s in cluster.ignem_master.slaves()
            if s.reference_list(block.block_id)
        ]
        all_refs = set().union(
            *(s.reference_list(block.block_id) for s in holders)
        )
        assert all_refs == {"j1", "j2"}

    def test_block_kept_while_any_ref_remains(self):
        cluster = make_cluster(seed=21)
        cluster.client.create_file("/f", 64 * MB)
        block = cluster.namenode.file_blocks("/f")[0]
        migrate_and_run(cluster, ["/f"], "j1")
        cluster.ignem_master.request_migration(["/f"], "j2")
        cluster.run()
        holder = slave_holding(cluster, block.block_id)
        if holder.reference_list(block.block_id) == {"j1", "j2"}:
            cluster.ignem_master.request_eviction(["/f"], "j1")
            cluster.run()
            assert holder.block_migrated(block.block_id)
            cluster.ignem_master.request_eviction(["/f"], "j2")
            cluster.run()
        else:
            cluster.ignem_master.request_eviction(["/f"], "j1")
            cluster.ignem_master.request_eviction(["/f"], "j2")
            cluster.run()
        assert not slave_holding(cluster, block.block_id)

    def test_explicit_eviction_frees_memory(self):
        cluster = make_cluster()
        cluster.client.create_file("/f", 256 * MB)
        migrate_and_run(cluster, ["/f"], "j1")
        assert sum(s.migrated_bytes for s in cluster.ignem_master.slaves()) > 0
        cluster.ignem_master.request_eviction(["/f"], "j1")
        cluster.run()
        assert sum(s.migrated_bytes for s in cluster.ignem_master.slaves()) == 0
        reasons = {e.reason for e in cluster.collector.evictions}
        assert reasons == {"explicit"}

    def test_implicit_eviction_on_read(self):
        cluster = make_cluster()
        cluster.client.create_file("/f", 64 * MB)
        block = cluster.namenode.file_blocks("/f")[0]
        migrate_and_run(cluster, ["/f"], "j1", implicit=True)
        holder = slave_holding(cluster, block.block_id)
        assert holder is not None

        def reader(env):
            read = cluster.client.read_block(block, holder.name, job_id="j1")
            yield read.done

        cluster.env.process(reader(cluster.env))
        cluster.run()
        assert not holder.block_migrated(block.block_id)
        assert any(e.reason == "implicit" for e in cluster.collector.evictions)

    def test_read_without_implicit_mode_keeps_block(self):
        cluster = make_cluster()
        cluster.client.create_file("/f", 64 * MB)
        block = cluster.namenode.file_blocks("/f")[0]
        migrate_and_run(cluster, ["/f"], "j1", implicit=False)
        holder = slave_holding(cluster, block.block_id)

        def reader(env):
            read = cluster.client.read_block(block, holder.name, job_id="j1")
            yield read.done

        cluster.env.process(reader(cluster.env))
        cluster.run()
        assert holder.block_migrated(block.block_id)

    def test_skipped_when_all_refs_gone_before_dequeue(self):
        """Eviction arriving before migration starts turns work into a skip."""
        cluster = make_cluster(num_nodes=1, replication=1)
        cluster.client.create_file("/big", 1280 * MB)  # 20 blocks, ~10s to migrate
        cluster.client.create_file("/late", 64 * MB)
        cluster.ignem_master.request_migration(["/big"], "big-job")
        cluster.ignem_master.request_migration(["/late"], "late-job")
        # Evict the late job's input before its turn in the queue.
        cluster.ignem_master.request_eviction(["/late"], "late-job")
        cluster.run()
        outcomes = {
            m.outcome for m in cluster.collector.migrations if m.job_id == "late-job"
        }
        assert outcomes == {"skipped"}


class TestDoNotHarm:
    def test_buffer_full_makes_new_blocks_wait(self):
        config = IgnemConfig(buffer_capacity=128 * MB)
        cluster = make_cluster(ignem_config=config, num_nodes=1, replication=1)
        cluster.client.create_file("/a", 128 * MB)
        cluster.client.create_file("/b", 64 * MB)
        cluster.rm.register_job("j-a")
        cluster.rm.register_job("j-b")
        cluster.ignem_master.request_migration(["/a"], "j-a")
        cluster.ignem_master.request_migration(["/b"], "j-b")
        cluster.run()
        slave = cluster.ignem_slaves["node0"]
        # Both jobs are live so nothing is reclaimed; the buffer fills and
        # the overflow block waits without evicting anything.  Smallest-
        # job-first migrates /b (64MB job) before /a's blocks, so the
        # buffer holds /b plus one of /a's two blocks.
        assert slave.migrated_bytes == 128 * MB
        for block in cluster.namenode.file_blocks("/b"):
            assert slave.block_migrated(block.block_id)
        a_migrated = [
            b
            for b in cluster.namenode.file_blocks("/a")
            if slave.block_migrated(b.block_id)
        ]
        assert len(a_migrated) == 1
        assert not cluster.collector.evictions

    def test_waiting_block_migrates_once_space_frees(self):
        config = IgnemConfig(buffer_capacity=128 * MB)
        cluster = make_cluster(ignem_config=config, num_nodes=1, replication=1)
        cluster.client.create_file("/a", 128 * MB)
        cluster.client.create_file("/b", 64 * MB)
        cluster.rm.register_job("j-a")
        cluster.rm.register_job("j-b")
        cluster.ignem_master.request_migration(["/a"], "j-a")
        cluster.ignem_master.request_migration(["/b"], "j-b")
        cluster.run()
        cluster.ignem_master.request_eviction(["/a"], "j-a")
        cluster.run()
        slave = cluster.ignem_slaves["node0"]
        for block in cluster.namenode.file_blocks("/b"):
            assert slave.block_migrated(block.block_id)

    def test_ablation_evicts_larger_jobs_block(self):
        config = IgnemConfig(
            buffer_capacity=128 * MB, do_not_harm=False
        )
        cluster = make_cluster(ignem_config=config, num_nodes=1, replication=1)
        cluster.client.create_file("/big", 128 * MB)
        cluster.client.create_file("/small", 64 * MB)
        cluster.rm.register_job("j-big")
        cluster.rm.register_job("j-small")
        cluster.ignem_master.request_migration(["/big"], "j-big")
        cluster.run()
        cluster.ignem_master.request_migration(["/small"], "j-small")
        cluster.run()
        slave = cluster.ignem_slaves["node0"]
        small_blocks = cluster.namenode.file_blocks("/small")
        assert all(slave.block_migrated(b.block_id) for b in small_blocks)
        assert any(e.reason == "preempted" for e in cluster.collector.evictions)

    def test_ablation_never_evicts_smaller_jobs(self):
        config = IgnemConfig(
            buffer_capacity=64 * MB, do_not_harm=False
        )
        cluster = make_cluster(ignem_config=config, num_nodes=1, replication=1)
        cluster.client.create_file("/small", 64 * MB)
        cluster.client.create_file("/big", 128 * MB)
        cluster.rm.register_job("j-small")
        cluster.rm.register_job("j-big")
        cluster.ignem_master.request_migration(["/small"], "j-small")
        cluster.run()
        cluster.ignem_master.request_migration(["/big"], "j-big")
        cluster.run()
        slave = cluster.ignem_slaves["node0"]
        for block in cluster.namenode.file_blocks("/small"):
            assert slave.block_migrated(block.block_id)


class TestLivenessCleanup:
    def test_dead_job_refs_purged_under_pressure(self):
        # /dead fills the whole buffer: occupancy 1.0, past the cleanup
        # threshold.
        config = IgnemConfig(buffer_capacity=128 * MB)
        cluster = make_cluster(ignem_config=config, num_nodes=1, replication=1)
        cluster.client.create_file("/dead", 128 * MB)
        cluster.client.create_file("/live", 64 * MB)
        # "dead-job" migrates but never sends an evict (it crashed) and is
        # not registered with the RM, so the liveness probe reports false.
        cluster.ignem_master.request_migration(["/dead"], "dead-job")
        cluster.run()
        cluster.ignem_master.request_migration(["/live"], "live-job")
        cluster.rm.register_job("live-job")
        cluster.run()
        slave = cluster.ignem_slaves["node0"]
        for block in cluster.namenode.file_blocks("/live"):
            assert slave.block_migrated(block.block_id)
        assert any(e.reason == "cleanup" for e in cluster.collector.evictions)


class TestSlaveFailure:
    def test_failed_slave_discards_memory(self):
        cluster = make_cluster()
        cluster.client.create_file("/f", 256 * MB)
        migrate_and_run(cluster, ["/f"], "j1")
        victim = next(
            s for s in cluster.ignem_master.slaves() if s.migrated_bytes > 0
        )
        victim.fail()
        assert victim.migrated_bytes == 0
        assert victim.reference_count() == 0

    def test_restarted_slave_accepts_new_work(self):
        cluster = make_cluster(num_nodes=1, replication=1)
        cluster.client.create_file("/f", 64 * MB)
        slave = cluster.ignem_slaves["node0"]
        slave.fail()
        slave.datanode.restart()
        slave.restart()
        migrate_and_run(cluster, ["/f"], "j2")
        assert slave.migrated_bytes == 64 * MB

    def test_dead_slave_ignores_commands(self):
        cluster = make_cluster(num_nodes=1, replication=1)
        cluster.client.create_file("/f", 64 * MB)
        slave = cluster.ignem_slaves["node0"]
        slave.fail()
        cluster.ignem_master.request_migration(["/f"], "j1")
        cluster.run()
        assert slave.migrated_bytes == 0


class TestMemoryTimeline:
    def test_usage_timeline_tracks_migrate_and_evict(self):
        cluster = make_cluster(num_nodes=1, replication=1)
        cluster.client.create_file("/f", 128 * MB)
        migrate_and_run(cluster, ["/f"], "j1")
        cluster.ignem_master.request_eviction(["/f"], "j1")
        cluster.run()
        slave = cluster.ignem_slaves["node0"]
        values = [v for _, v in slave.usage_timeline]
        assert values[0] == 0.0
        assert max(values) == 128 * MB
        assert values[-1] == 0.0
        times = [t for t, _ in slave.usage_timeline]
        assert times == sorted(times)

    def test_memory_samples_recorded(self):
        cluster = make_cluster()
        cluster.client.create_file("/f", 128 * MB)
        migrate_and_run(cluster, ["/f"], "j1")
        assert cluster.collector.memory_samples
