"""Tests for cluster assembly and configuration."""

import pytest

from repro import Cluster, ClusterConfig, IgnemConfig, build_paper_testbed
from repro.dfs import Block
from repro.scheduler.node_manager import HEARTBEAT_INTERVAL
from repro.storage import GB, MB


class TestClusterConfig:
    def test_defaults_mirror_the_paper_testbed(self):
        config = ClusterConfig()
        assert config.num_nodes == 8
        assert HEARTBEAT_INTERVAL == 3.0
        assert config.block_size == 64 * MB
        assert config.replication == 3
        node = Cluster(config).datanodes["node0"]
        assert node.tiers.top.capacity == 128 * GB

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_nodes=0)
        with pytest.raises(ValueError):
            ClusterConfig(tier_preset="tape")

    def test_cluster_has_one_of_everything_per_node(self):
        cluster = Cluster(ClusterConfig(num_nodes=3))
        assert len(cluster.datanodes) == 3
        assert len(cluster.rm.nodes()) == 3
        assert cluster.node_names() == ["node0", "node1", "node2"]
        for name in cluster.node_names():
            assert cluster.network.has_node(name)

    def test_heartbeats_staggered_across_nodes(self):
        cluster = Cluster(ClusterConfig(num_nodes=4))
        offsets = [nm.heartbeat_offset for nm in cluster.rm.nodes()]
        assert len(set(offsets)) == 4

    def test_ssd_cluster_uses_ssd_devices(self):
        cluster = Cluster(ClusterConfig(num_nodes=2, tier_preset="mem-ssd"))
        for datanode in cluster.datanodes.values():
            assert "ssd" in datanode.disk.name


    def test_added_node_named_ssd_keeps_the_hdd_stack(self):
        # The tier set comes from the preset, never from a device name.
        cluster = Cluster(ClusterConfig(num_nodes=2))
        datanode = cluster.add_datanode("ssd-spare")
        assert datanode.tiers.names() == ("mem", "hdd")
        block = Block("/f#blk0", "/f", 0, 64 * MB)
        datanode.store_block(block)
        assert datanode.read_block(block).source == "hdd"


class TestIgnemWiring:
    def test_enable_ignem_attaches_master_and_slaves(self):
        cluster = build_paper_testbed(num_nodes=3)
        master = cluster.enable_ignem()
        assert cluster.ignem_master is master
        assert cluster.client.ignem_master is master
        assert set(cluster.ignem_slaves) == set(cluster.node_names())
        assert len(master.slaves()) == 3

    def test_enable_ignem_twice_rejected(self):
        cluster = build_paper_testbed(num_nodes=2, ignem=True)
        with pytest.raises(RuntimeError):
            cluster.enable_ignem()

    def test_custom_ignem_config_propagates(self):
        config = IgnemConfig(buffer_capacity=1 * GB, policy="fifo")
        cluster = build_paper_testbed(num_nodes=2)
        cluster.enable_ignem(config)
        for slave in cluster.ignem_slaves.values():
            assert slave.config.buffer_capacity == 1 * GB
            assert slave.policy.name == "fifo"


class TestBaselineHelpers:
    def test_pin_all_inputs_pins_every_replica(self):
        cluster = build_paper_testbed(num_nodes=3, replication=2)
        cluster.client.create_file("/f", 128 * MB)
        cluster.pin_all_inputs()
        for block in cluster.namenode.file_blocks("/f"):
            for node in cluster.namenode.get_block_locations(block.block_id):
                assert cluster.datanodes[node].cache.is_pinned(block.block_id)

    def test_pin_selected_paths_only(self):
        cluster = build_paper_testbed(num_nodes=3, replication=2)
        cluster.client.create_file("/a", 64 * MB)
        cluster.client.create_file("/b", 64 * MB)
        cluster.pin_all_inputs(["/a"])
        block_a = cluster.namenode.file_blocks("/a")[0]
        block_b = cluster.namenode.file_blocks("/b")[0]
        pinned_a = any(
            dn.cache.is_pinned(block_a.block_id)
            for dn in cluster.datanodes.values()
        )
        pinned_b = any(
            dn.cache.is_pinned(block_b.block_id)
            for dn in cluster.datanodes.values()
        )
        assert pinned_a and not pinned_b

    def test_flush_caches_clears_pins(self):
        cluster = build_paper_testbed(num_nodes=2)
        cluster.client.create_file("/f", 64 * MB)
        cluster.pin_all_inputs()
        cluster.flush_caches()
        for datanode in cluster.datanodes.values():
            assert datanode.cache.used_bytes == 0


class TestSeeding:
    def test_same_seed_builds_identical_placement(self):
        def placements(seed):
            cluster = build_paper_testbed(seed=seed)
            cluster.client.create_file("/f", 640 * MB)
            return [
                tuple(cluster.namenode.get_block_locations(b.block_id))
                for b in cluster.namenode.file_blocks("/f")
            ]

        assert placements(3) == placements(3)
        assert placements(3) != placements(4)

    def test_subsystem_rngs_are_independent(self):
        cluster = build_paper_testbed(seed=3)
        assert cluster.rng.spawn("a").py.random() != cluster.rng.spawn(
            "b"
        ).py.random()
