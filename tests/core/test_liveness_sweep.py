"""Liveness sweep under memory pressure (paper III-A4).

A job that disappears without evicting leaks references; the sweep runs
when the buffer is under pressure, reclaims what dead jobs pinned, and
the freed space admits the waiting migration — all without ever touching
a live job's blocks (do-not-harm, III-A3).
"""

from repro.storage import MB
from tests.fixtures import make_ignem_cluster


def make_cluster(buffer_capacity):
    return make_ignem_cluster(
        num_nodes=1, replication=1, buffer_capacity=buffer_capacity
    )


class TestSweepUnderPressure:
    def test_leaked_refs_collected_and_freed_space_admits_migration(self):
        cluster = make_cluster(buffer_capacity=128 * MB)
        slave = cluster.ignem_slaves["node0"]
        master = cluster.ignem_master

        # j1 migrates a full-buffer block, then vanishes from the
        # scheduler without evicting: a leaked reference.
        cluster.rm.register_job("j1")
        cluster.client.create_file("/a", 128 * MB)
        master.request_migration(["/a"], "j1")
        cluster.run()
        assert slave.migrated_bytes == 128 * MB
        cluster.rm.unregister_job("j1")

        # j2 wants its own block; the buffer is full of dead-job data.
        cluster.rm.register_job("j2")
        cluster.client.create_file("/b", 128 * MB)
        master.request_migration(["/b"], "j2")
        cluster.run()

        block_a = cluster.namenode.file_blocks("/a")[0]
        block_b = cluster.namenode.file_blocks("/b")[0]
        # The sweep collected j1's leak and the freed buffer admitted j2.
        assert not slave.block_migrated(block_a.block_id)
        assert slave.block_migrated(block_b.block_id)
        assert slave.reference_list(block_a.block_id) == set()
        assert slave.reference_list(block_b.block_id) == {"j2"}

    def test_sweep_never_touches_live_jobs(self):
        cluster = make_cluster(buffer_capacity=128 * MB)
        slave = cluster.ignem_slaves["node0"]
        master = cluster.ignem_master

        # j1 is alive and holds the whole buffer.
        cluster.rm.register_job("j1")
        cluster.client.create_file("/a", 128 * MB)
        master.request_migration(["/a"], "j1")
        cluster.run()

        # j2's migration finds no space, and the sweep must not evict
        # j1's not-yet-read block to make room (do-not-harm).
        cluster.rm.register_job("j2")
        cluster.client.create_file("/b", 128 * MB)
        master.request_migration(["/b"], "j2")
        cluster.run()

        block_a = cluster.namenode.file_blocks("/a")[0]
        block_b = cluster.namenode.file_blocks("/b")[0]
        assert slave.block_migrated(block_a.block_id)
        assert not slave.block_migrated(block_b.block_id)
        # The buffer never exceeded capacity while both jobs pushed.
        peak = max(usage for _, usage in slave.usage_timeline)
        assert peak <= 128 * MB

    def test_forced_sweep_collects_without_pressure(self):
        cluster = make_cluster(buffer_capacity=512 * MB)
        slave = cluster.ignem_slaves["node0"]
        master = cluster.ignem_master

        cluster.rm.register_job("j1")
        cluster.client.create_file("/a", 128 * MB)
        master.request_migration(["/a"], "j1")
        cluster.run()
        cluster.rm.unregister_job("j1")

        # Occupancy is far below CLEANUP_THRESHOLD: the gated sweep
        # stays parked, but force=True (the post-run invariant sweep)
        # collects the leak anyway.
        slave.cleanup_dead_jobs()
        assert slave.reference_count() == 2  # one leaked ref per block
        slave.cleanup_dead_jobs(force=True)
        assert slave.reference_count() == 0
        assert slave.migrated_bytes == 0
