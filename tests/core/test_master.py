"""Tests for the Ignem master: mapping, replica choice, RPC, failure."""

import pytest

from repro.core import IgnemMaster, IgnemSlave
from repro.core.config import RPC_LATENCY
from repro.storage import GB, MB

from .conftest import make_cluster


class TestMigrationFanout:
    def test_each_block_migrated_on_exactly_one_replica(self, cluster, master):
        cluster.client.create_file("/f", 640 * MB)  # 10 blocks
        master.request_migration(["/f"], "j1")
        cluster.run()
        for block in cluster.namenode.file_blocks("/f"):
            holders = [
                s for s in master.slaves() if s.block_migrated(block.block_id)
            ]
            assert len(holders) == 1
            locations = cluster.namenode.get_block_locations(block.block_id)
            assert holders[0].name in locations

    def test_replica_choice_is_seeded_random(self):
        def chosen_nodes(seed):
            c = make_cluster(seed=seed)
            c.client.create_file("/f", 640 * MB)
            c.ignem_master.request_migration(["/f"], "j1")
            c.run()
            return tuple(
                s.name
                for block in c.namenode.file_blocks("/f")
                for s in c.ignem_master.slaves()
                if s.block_migrated(block.block_id)
            )

        assert chosen_nodes(1) == chosen_nodes(1)
        assert chosen_nodes(1) != chosen_nodes(2)

    def test_migration_request_counts(self, cluster, master):
        cluster.client.create_file("/f", 64 * MB)
        master.request_migration(["/f"], "j1")
        master.request_migration(["/f"], "j2")
        assert master.metrics.value("ignem.master.migration_requests") == 2

    def test_rpc_latency_delays_delivery(self):
        c = make_cluster()
        c.client.create_file("/f", 64 * MB)
        c.ignem_master.request_migration(["/f"], "j1")
        # Before the RPC lands, no slave has queued work.
        c.env.run(until=RPC_LATENCY / 2)
        assert all(s.pending_migrations == 0 for s in c.ignem_master.slaves())
        c.run()
        migrated = [
            s
            for block in c.namenode.file_blocks("/f")
            for s in c.ignem_master.slaves()
            if s.block_migrated(block.block_id)
        ]
        assert migrated

    def test_duplicate_slave_rejected(self, cluster, master):
        with pytest.raises(ValueError):
            master.attach_slave(master.slaves()[0])


class TestEviction:
    def test_eviction_goes_to_the_chosen_slave(self, cluster, master):
        cluster.client.create_file("/f", 128 * MB)
        master.request_migration(["/f"], "j1")
        cluster.run()
        assert any(s.migrated_bytes > 0 for s in master.slaves())
        master.request_eviction(["/f"], "j1")
        cluster.run()
        assert all(s.migrated_bytes == 0 for s in master.slaves())

    def test_eviction_for_missing_file_is_harmless(self, cluster, master):
        master.request_eviction(["/ghost"], "j1")  # must not raise

    def test_eviction_request_counts(self, cluster, master):
        cluster.client.create_file("/f", 64 * MB)
        master.request_eviction(["/f"], "j1")
        assert master.metrics.value("ignem.master.eviction_requests") == 1


class TestMasterFailure:
    def test_dead_master_drops_requests(self, cluster, master):
        cluster.client.create_file("/f", 64 * MB)
        master.fail()
        master.request_migration(["/f"], "j1")
        cluster.run()
        assert all(s.migrated_bytes == 0 for s in master.slaves())

    def test_restart_purges_slave_state(self, cluster, master):
        cluster.client.create_file("/f", 256 * MB)
        master.request_migration(["/f"], "j1")
        cluster.run()
        assert any(s.migrated_bytes > 0 for s in master.slaves())
        master.fail()
        master.restart()
        assert all(s.migrated_bytes == 0 for s in master.slaves())
        assert all(s.reference_count() == 0 for s in master.slaves())

    def test_new_master_handles_new_requests(self, cluster, master):
        cluster.client.create_file("/f", 128 * MB)
        master.fail()
        master.restart()
        master.request_migration(["/f"], "j2")
        cluster.run()
        assert any(s.migrated_bytes > 0 for s in master.slaves())
