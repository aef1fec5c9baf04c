"""Tests for disk capacity accounting and capacity-aware placement."""

import pytest

from repro import build_paper_testbed
from repro.dfs import Block, DataNode, DataNodeError, NameNodeError
from repro.sim import Environment
from repro.storage import GB, MB


class TestDataNodeCapacity:
    def test_store_accounts_bytes(self):
        env = Environment()
        node = DataNode(env, "n", disk_capacity=1 * GB)
        node.store_block(Block("b0", "/f", 0, 300 * MB))
        assert node.disk_used == 300 * MB
        assert node.has_capacity(700 * MB)
        assert not node.has_capacity(800 * MB)

    def test_store_beyond_capacity_rejected(self):
        env = Environment()
        node = DataNode(env, "n", disk_capacity=100 * MB)
        node.store_block(Block("b0", "/f", 0, 64 * MB))
        with pytest.raises(DataNodeError, match="disk space"):
            node.store_block(Block("b1", "/f", 1, 64 * MB))

    def test_duplicate_store_not_double_counted(self):
        env = Environment()
        node = DataNode(env, "n", disk_capacity=1 * GB)
        block = Block("b0", "/f", 0, 100 * MB)
        node.store_block(block)
        node.store_block(block)
        assert node.disk_used == 100 * MB

    def test_drop_releases_bytes(self):
        env = Environment()
        node = DataNode(env, "n", disk_capacity=1 * GB)
        node.store_block(Block("b0", "/f", 0, 100 * MB))
        node.drop_block("b0")
        assert node.disk_used == 0

    def test_write_block_accounts_and_rejects(self):
        env = Environment()
        node = DataNode(env, "n", disk_capacity=100 * MB)

        def proc(env):
            yield node.write_block(Block("b0", "/f", 0, 64 * MB))
            with pytest.raises(DataNodeError, match="disk space"):
                node.write_block(Block("b1", "/f", 1, 64 * MB))

        env.process(proc(env))
        env.run()
        assert node.disk_used == 64 * MB

    def test_invalid_capacity_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            DataNode(env, "n", disk_capacity=0)


class TestCapacityAwarePlacement:
    def test_placement_avoids_full_nodes(self):
        cluster = build_paper_testbed(
            num_nodes=3, replication=1, disk_capacity=200 * MB
        )
        # Fill node0 almost completely via direct placement.
        full = cluster.datanodes["node0"]
        full.store_block(Block("filler", "/x", 0, 180 * MB))
        # New 64MB blocks cannot land on node0 anymore.
        metadata = cluster.client.create_file("/f", 256 * MB)
        for block in metadata.blocks:
            assert "node0" not in cluster.namenode.get_block_locations(
                block.block_id
            )

    def test_cluster_out_of_space_raises_and_rolls_back(self):
        cluster = build_paper_testbed(
            num_nodes=2, replication=1, disk_capacity=100 * MB
        )
        with pytest.raises(NameNodeError, match="capacity"):
            cluster.client.create_file("/huge", 10 * GB)
        assert not cluster.namenode.exists("/huge")

    def test_failed_create_releases_placed_replicas(self):
        cluster = build_paper_testbed(
            num_nodes=2, replication=1, disk_capacity=100 * MB
        )
        namenode = cluster.namenode
        with pytest.raises(NameNodeError, match="capacity"):
            namenode.create_file("/huge", 1000 * MB)
        for datanode in cluster.datanodes.values():
            assert datanode.disk_used == 0
            assert datanode.stored_blocks() == set()
        namenode.create_file("/fits", 64 * MB)
        assert namenode.list_files() == ["/fits"]

    def test_deleting_files_frees_space_for_new_ones(self):
        cluster = build_paper_testbed(
            num_nodes=2, replication=1, disk_capacity=200 * MB
        )
        cluster.client.create_file("/a", 300 * MB)
        with pytest.raises(NameNodeError):
            cluster.client.create_file("/b", 300 * MB)
        cluster.client.delete("/a")
        cluster.client.create_file("/b", 300 * MB)
        assert cluster.namenode.exists("/b")

    def test_default_capacity_matches_paper_testbed(self):
        cluster = build_paper_testbed(num_nodes=1)
        assert cluster.datanodes["node0"].disk_capacity == 1024 * GB
