"""Tests for the NameNode: namespace, placement, liveness."""

import pytest

from repro import Cluster, ClusterConfig
from repro.dfs import DataNode, NameNode, NameNodeError
from repro.sim import Environment, RandomSource
from repro.storage import MB


class _UnscannableList(list):
    """A live list that fails the test if anything iterates it."""

    def __iter__(self):
        raise AssertionError("placement scanned the live-node list")


class TestNamespace:
    def test_create_and_get_file(self, namenode):
        metadata = namenode.create_file("/data/a", 100 * MB)
        assert namenode.exists("/data/a")
        assert namenode.get_file("/data/a") is metadata
        assert metadata.nbytes == 100 * MB

    def test_create_duplicate_rejected(self, namenode):
        namenode.create_file("/data/a", 10 * MB)
        with pytest.raises(NameNodeError):
            namenode.create_file("/data/a", 10 * MB)

    def test_get_missing_file_raises(self, namenode):
        with pytest.raises(NameNodeError):
            namenode.get_file("/nope")

    def test_delete_file_removes_blocks_everywhere(self, namenode):
        metadata = namenode.create_file("/data/a", 100 * MB)
        block_id = metadata.blocks[0].block_id
        nodes = namenode.get_block_locations(block_id)
        namenode.delete_file("/data/a")
        assert not namenode.exists("/data/a")
        for node in nodes:
            assert not namenode.datanode(node).has_block(block_id)
        with pytest.raises(NameNodeError):
            namenode.get_block_locations(block_id)

    def test_delete_missing_raises(self, namenode):
        with pytest.raises(NameNodeError):
            namenode.delete_file("/nope")

    def test_list_files_sorted(self, namenode):
        namenode.create_file("/b", 1 * MB)
        namenode.create_file("/a", 1 * MB)
        assert namenode.list_files() == ["/a", "/b"]

    def test_total_bytes(self, namenode):
        namenode.create_file("/a", 10 * MB)
        namenode.create_file("/b", 20 * MB)
        assert namenode.total_bytes(["/a", "/b"]) == 30 * MB


class TestPlacement:
    def test_replication_factor_respected(self, namenode):
        metadata = namenode.create_file("/data/a", 64 * MB)
        locations = namenode.get_block_locations(metadata.blocks[0].block_id)
        assert len(locations) == 2  # fixture replication=2
        assert len(set(locations)) == 2

    def test_replication_capped_by_cluster_size(self, namenode):
        metadata = namenode.create_file("/data/a", 64 * MB, replication=10)
        locations = namenode.get_block_locations(metadata.blocks[0].block_id)
        assert len(locations) == 4  # only 4 nodes exist

    def test_preferred_node_gets_first_replica(self, namenode):
        metadata = namenode.create_file(
            "/data/a", 64 * MB, preferred_node="node2"
        )
        locations = namenode.get_block_locations(metadata.blocks[0].block_id)
        assert "node2" in locations

    def test_blocks_materialized_on_datanodes(self, namenode):
        metadata = namenode.create_file("/data/a", 128 * MB)
        for block in metadata.blocks:
            for node in namenode.get_block_locations(block.block_id):
                assert namenode.datanode(node).has_block(block.block_id)

    def test_materialize_false_leaves_disks_empty(self, namenode):
        metadata = namenode.create_file("/x", 64 * MB, materialize=False)
        block_id = metadata.blocks[0].block_id
        for node in namenode.get_block_locations(block_id):
            assert not namenode.datanode(node).has_block(block_id)

    def test_placement_deterministic_with_seed(self):
        def build(seed):
            env = Environment()
            nn = NameNode(rng=RandomSource(seed), replication=2)
            for index in range(5):
                nn.register_datanode(DataNode(env, f"n{index}"))
            metadata = nn.create_file("/f", 256 * MB)
            return [
                tuple(nn.get_block_locations(b.block_id)) for b in metadata.blocks
            ]

        assert build(3) == build(3)
        # Different seeds should (for 4 blocks over 5 nodes) give different
        # placements; equality would indicate ignored seeds.
        assert build(3) != build(4)


    def test_create_file_never_scans_the_live_list(self, monkeypatch):
        # Placement on a cluster with room everywhere is O(replication):
        # one sample draw, no O(nodes) capacity filter.
        cluster = Cluster(ClusterConfig(num_nodes=2000))
        namenode = cluster.namenode
        live = _UnscannableList(namenode.live_datanodes())
        monkeypatch.setattr(namenode, "live_datanodes", lambda: live)
        metadata = namenode.create_file("/f", 4 * cluster.config.block_size)
        for block in metadata.blocks:
            assert len(namenode.get_block_locations(block.block_id)) == 3


class TestLiveness:
    def test_invalid_replication_rejected(self):
        with pytest.raises(ValueError):
            NameNode(replication=0)

    def test_duplicate_datanode_rejected(self, env, namenode):
        with pytest.raises(NameNodeError):
            namenode.register_datanode(DataNode(env, "node0"))

    def test_unknown_datanode_raises(self, namenode):
        with pytest.raises(NameNodeError):
            namenode.datanode("ghost")

    def test_dead_node_filtered_from_locations(self, namenode):
        metadata = namenode.create_file("/data/a", 64 * MB, replication=4)
        block_id = metadata.blocks[0].block_id
        before = namenode.get_block_locations(block_id)
        namenode.datanode(before[0]).fail()
        after = namenode.get_block_locations(block_id)
        assert before[0] not in after
        assert len(after) == len(before) - 1

    def test_remove_datanode_scrubs_locations(self, namenode):
        metadata = namenode.create_file("/data/a", 64 * MB, replication=4)
        block_id = metadata.blocks[0].block_id
        victim = namenode.get_block_locations(block_id)[0]
        namenode.remove_datanode(victim)
        assert victim not in namenode.get_block_locations(block_id)
        with pytest.raises(NameNodeError):
            namenode.datanode(victim)

    def test_create_with_no_live_nodes_raises(self, namenode):
        for datanode in namenode.datanodes():
            datanode.fail()
        with pytest.raises(NameNodeError):
            namenode.create_file("/f", 1 * MB)

    def test_placement_avoids_dead_nodes(self, namenode):
        namenode.datanode("node0").fail()
        metadata = namenode.create_file("/f", 640 * MB, replication=3)
        for block in metadata.blocks:
            assert "node0" not in namenode.get_block_locations(block.block_id)
