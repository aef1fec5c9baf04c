"""Tests for the re-replication monitor."""

import pytest

from repro.dfs.replication import _retry_delay
from repro.storage import MB
from tests.fixtures import make_dfs_cluster as make_cluster


class TestUnderReplicationDetection:
    def test_healthy_cluster_has_no_under_replicated_blocks(self):
        cluster = make_cluster()
        cluster.client.create_file("/f", 128 * MB)
        assert cluster.replication_monitor.under_replicated_blocks() == []

    def test_failure_exposes_under_replicated_blocks(self):
        cluster = make_cluster()
        cluster.client.create_file("/f", 128 * MB)
        victim = cluster.namenode.get_block_locations(
            cluster.namenode.file_blocks("/f")[0].block_id
        )[0]
        cluster.datanodes[victim].fail()
        under = cluster.replication_monitor.under_replicated_blocks()
        assert under  # at least the first block lost a replica

    def test_target_capped_by_live_nodes(self):
        cluster = make_cluster(num_nodes=2, replication=2)
        cluster.client.create_file("/f", 64 * MB)
        cluster.datanodes["node1"].fail()
        # Only one live node: target replication becomes 1, so a block
        # with one live replica is NOT under-replicated.
        assert cluster.replication_monitor.under_replicated_blocks() == []


class TestRestoration:
    def test_fail_node_restores_replication_factor(self):
        cluster = make_cluster()
        cluster.client.create_file("/f", 256 * MB)
        block = cluster.namenode.file_blocks("/f")[0]
        victim = cluster.namenode.get_block_locations(block.block_id)[0]
        cluster.fail_node(victim)
        cluster.run()
        assert cluster.metrics.counter("dfs.repair.copies_completed").value > 0
        for blk in cluster.namenode.file_blocks("/f"):
            live = cluster.namenode.get_block_locations(blk.block_id)
            assert len(live) == 2
            assert victim not in live

    def test_new_replicas_are_readable(self):
        cluster = make_cluster()
        cluster.client.create_file("/f", 128 * MB)
        block = cluster.namenode.file_blocks("/f")[0]
        victim = cluster.namenode.get_block_locations(block.block_id)[0]
        cluster.fail_node(victim)
        cluster.run()
        new_home = [
            n
            for n in cluster.namenode.get_block_locations(block.block_id)
        ][-1]
        assert cluster.namenode.datanode(new_home).has_block(block.block_id)

    def test_copies_move_real_bytes(self):
        cluster = make_cluster()
        cluster.client.create_file("/f", 128 * MB)
        victim = cluster.namenode.get_block_locations(
            cluster.namenode.file_blocks("/f")[0].block_id
        )[0]
        before = {
            name: cluster.network.nic(name).bytes_moved
            for name in cluster.node_names()
        }
        cluster.fail_node(victim)
        cluster.run()
        moved = sum(
            cluster.network.nic(name).bytes_moved - before[name]
            for name in cluster.node_names()
        )
        assert moved > 0

    def test_unrecoverable_blocks_counted(self):
        cluster = make_cluster(num_nodes=3, replication=1)
        cluster.client.create_file("/f", 64 * MB)
        holder = cluster.namenode.get_block_locations(
            cluster.namenode.file_blocks("/f")[0].block_id
        )[0]
        cluster.fail_node(holder)
        cluster.run()
        registry = cluster.metrics
        assert registry.counter("dfs.repair.copies_failed").value >= 1
        assert registry.counter("dfs.repair.copies_completed").value == 0

    def test_enable_rereplication_idempotent(self):
        cluster = make_cluster()
        first = cluster.replication_monitor
        second = cluster.enable_rereplication()
        assert first is second

    def test_sequential_failures_keep_data_available(self):
        cluster = make_cluster(num_nodes=6, replication=3)
        cluster.client.create_file("/f", 256 * MB)
        cluster.fail_node("node0")
        cluster.run()
        cluster.fail_node("node1")
        cluster.run()
        for blk in cluster.namenode.file_blocks("/f"):
            live = cluster.namenode.get_block_locations(blk.block_id)
            assert len(live) == 3

    def test_concurrent_double_failure_repairs_over_a_chain(self):
        # Two replicas of the same block gone at once: one repair pass
        # pipelines source -> target1 -> target2 instead of two rounds.
        cluster = make_cluster(num_nodes=6, replication=3)
        cluster.client.create_file("/f", 128 * MB)
        block = cluster.namenode.file_blocks("/f")[0]
        first, second = cluster.namenode.get_block_locations(block.block_id)[:2]
        cluster.fail_node(first)
        cluster.fail_node(second)
        cluster.run()
        for blk in cluster.namenode.file_blocks("/f"):
            live = cluster.namenode.get_block_locations(blk.block_id)
            assert len(live) == 3
            assert first not in live and second not in live


class TestThinning:
    def test_restart_after_repair_thins_the_excess_replica(self):
        cluster = make_cluster()
        cluster.client.create_file("/f", 128 * MB)
        victim = cluster.namenode.get_block_locations(
            cluster.namenode.file_blocks("/f")[0].block_id
        )[0]
        cluster.fail_node(victim)
        cluster.run()  # repair restores every block to 2 replicas
        cluster.restart_node(victim)
        cluster.run()  # the revived copies push blocks to 3: thin back
        assert cluster.metrics.counter("dfs.repair.excess_dropped").value > 0
        assert cluster.replication_monitor.over_replicated_blocks() == []
        for blk in cluster.namenode.file_blocks("/f"):
            live = cluster.namenode.get_block_locations(blk.block_id)
            assert len(live) == 2


class TestElasticity:
    def test_add_datanode_auto_names_and_registers(self):
        cluster = make_cluster()
        name = cluster.add_datanode().name
        assert name == "node4"
        assert name in cluster.datanodes
        assert name in [
            dn.name for dn in cluster.namenode.live_datanodes()
        ]

    def test_add_datanode_rejects_duplicate_names(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            cluster.add_datanode("node0")

    def test_join_triggers_rebalancing_onto_the_new_node(self):
        cluster = make_cluster(num_nodes=3, replication=2)
        cluster.client.create_file("/a", 256 * MB)
        cluster.client.create_file("/b", 256 * MB)
        name = cluster.add_datanode().name
        cluster.run()
        assert cluster.metrics.counter("dfs.repair.rebalance_moves").value > 0
        assert cluster.namenode.datanode(name).disk_used > 0
        # Rebalancing moves, never duplicates: every block still holds
        # exactly its replication factor.
        for path in ("/a", "/b"):
            for blk in cluster.namenode.file_blocks(path):
                live = cluster.namenode.get_block_locations(blk.block_id)
                assert len(live) == 2
                assert len(set(live)) == 2

    def test_decommission_drains_all_blocks_then_releases(self):
        cluster = make_cluster()
        cluster.client.create_file("/f", 256 * MB)
        victim = cluster.namenode.get_block_locations(
            cluster.namenode.file_blocks("/f")[0].block_id
        )[0]
        done = []
        event = cluster.decommission(victim)
        event.callbacks.append(lambda ev: done.append(ev.value))
        cluster.run()
        assert done and done[0][0] == victim
        assert victim in cluster.released_nodes
        assert cluster.decommission_log[0][1] == victim
        for blk in cluster.namenode.file_blocks("/f"):
            live = cluster.namenode.get_block_locations(blk.block_id)
            assert len(live) == 2
            assert victim not in live

    def test_decommission_refuses_while_replication_would_drop(self):
        # Two nodes, replication 2: there is nowhere to drain to, so
        # the node must NOT be released (and its blocks stay live).
        cluster = make_cluster(num_nodes=2, replication=2)
        cluster.client.create_file("/f", 128 * MB)
        cluster.decommission("node1")
        cluster.run()
        assert "node1" not in cluster.released_nodes
        assert "node1" in cluster.replication_monitor.decommissioning_nodes()
        for blk in cluster.namenode.file_blocks("/f"):
            live = cluster.namenode.get_block_locations(blk.block_id)
            assert len(live) == 2

    def test_join_unblocks_a_stuck_decommission(self):
        cluster = make_cluster(num_nodes=2, replication=2)
        cluster.client.create_file("/f", 128 * MB)
        cluster.decommission("node1")
        cluster.run()
        assert "node1" not in cluster.released_nodes
        replacement = cluster.add_datanode().name
        cluster.run()
        assert "node1" in cluster.released_nodes
        for blk in cluster.namenode.file_blocks("/f"):
            live = cluster.namenode.get_block_locations(blk.block_id)
            assert sorted(live) == sorted(["node0", replacement])

    def test_decommission_is_idempotent(self):
        cluster = make_cluster()
        cluster.client.create_file("/f", 64 * MB)
        first = cluster.decommission("node2")
        second = cluster.decommission("node2")
        assert first is second
        cluster.run()
        assert [node for _, node in cluster.decommission_log] == ["node2"]

    def test_released_nodes_reject_further_lifecycle_calls(self):
        cluster = make_cluster()
        cluster.client.create_file("/f", 64 * MB)
        cluster.decommission("node2")
        cluster.run()
        with pytest.raises(RuntimeError):
            cluster.decommission("node2")
        with pytest.raises(RuntimeError):
            cluster.restart_node("node2")

    def test_decommission_unknown_node_raises(self):
        cluster = make_cluster()
        with pytest.raises(ValueError):
            cluster.decommission("node99")


def test_retry_delay_grows_geometrically():
    assert _retry_delay(1) == 0.25
    assert _retry_delay(2) == 0.5
    assert _retry_delay(3) == 1.0
