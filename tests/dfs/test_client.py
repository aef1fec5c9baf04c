"""Tests for DFSClient replica selection, reads, and writes."""

import pytest

from repro.dfs import DFSClient, DataNode, NameNode, NameNodeError
from repro.net import Network, NetworkError
from repro.sim import Environment, RandomSource
from repro.sim.events import join_all
from repro.storage import GB, MB


def run_read(env, client, block, reader_node, job_id=None):
    results = {}

    def proc(env):
        read = client.read_block(block, reader_node, job_id=job_id)
        start = env.now
        yield read.done
        results["source"] = read.source
        results["serving_node"] = read.serving_node
        results["duration"] = env.now - start

    env.process(proc(env))
    env.run()
    return results


class TestReplicaSelection:
    def test_local_disk_replica_preferred(self, env, namenode, client):
        metadata = client.create_file("/f", 64 * MB)
        block = metadata.blocks[0]
        local = namenode.get_block_locations(block.block_id)[0]
        results = run_read(env, client, block, reader_node=local)
        assert results["serving_node"] == local
        assert results["source"] == "hdd"

    def test_remote_read_crosses_network(self, env, namenode, client, network):
        metadata = client.create_file("/f", 64 * MB)
        block = metadata.blocks[0]
        locations = namenode.get_block_locations(block.block_id)
        outsider = next(
            f"node{i}" for i in range(4) if f"node{i}" not in locations
        )
        results = run_read(env, client, block, reader_node=outsider)
        assert results["serving_node"] in locations
        assert network.nic(outsider).bytes_moved == pytest.approx(64 * MB)

    def test_memory_replica_preferred_over_local_disk(self, env, namenode, client):
        metadata = client.create_file("/f", 64 * MB)
        block = metadata.blocks[0]
        locations = namenode.get_block_locations(block.block_id)
        local, remote = locations[0], locations[1]

        def setup(env):
            yield namenode.datanode(remote).migrate_block_to_tier(block, "mem")

        env.process(setup(env))
        env.run()
        results = run_read(env, client, block, reader_node=local)
        assert results["source"] == "ram"
        assert results["serving_node"] == remote

    def test_local_memory_replica_preferred_over_remote_memory(
        self, env, namenode, client
    ):
        metadata = client.create_file("/f", 64 * MB)
        block = metadata.blocks[0]
        locations = namenode.get_block_locations(block.block_id)

        def setup(env):
            for node in locations:
                yield namenode.datanode(node).migrate_block_to_tier(block, "mem")

        env.process(setup(env))
        env.run()
        results = run_read(env, client, block, reader_node=locations[0])
        assert results["serving_node"] == locations[0]
        assert results["source"] == "ram"

    def test_memory_locations_reports_migrated_replicas(self, env, namenode, client):
        metadata = client.create_file("/f", 64 * MB)
        block = metadata.blocks[0]
        assert client.memory_locations(block) == []
        target = namenode.get_block_locations(block.block_id)[0]

        def setup(env):
            yield namenode.datanode(target).migrate_block_to_tier(block, "mem")

        env.process(setup(env))
        env.run()
        assert client.memory_locations(block) == [target]

    def test_read_with_no_live_replicas_raises(self, env, namenode, client):
        metadata = client.create_file("/f", 64 * MB)
        block = metadata.blocks[0]
        for node in namenode.get_block_locations(block.block_id):
            namenode.datanode(node).fail()
        with pytest.raises(NameNodeError):
            client.read_block(block, "node0")

    def test_ram_read_is_much_faster_than_disk_read(self, env, namenode, client):
        metadata = client.create_file("/f", 64 * MB)
        block = metadata.blocks[0]
        local = namenode.get_block_locations(block.block_id)[0]

        disk = run_read(env, client, block, reader_node=local)

        def setup(env):
            yield namenode.datanode(local).migrate_block_to_tier(block, "mem")

        env.process(setup(env))
        env.run()
        ram = run_read(env, client, block, reader_node=local)
        assert ram["duration"] < disk["duration"] / 10


def two_node_read():
    """An idle two-node cluster holding one 64 MB block on one node;
    returns ``(env, client, network, block, serving, reader)``."""
    env = Environment()
    network = Network(env)
    namenode = NameNode(rng=RandomSource(7), replication=1)
    for node in ("node0", "node1"):
        network.add_node(node)
        namenode.register_datanode(DataNode(env, node, cache_capacity=8 * GB))
    client = DFSClient(env, namenode, network, rng=RandomSource(11))
    block = client.create_file("/f", 64 * MB, preferred_node="node0").blocks[0]
    return env, client, network, block, "node0", "node1"


def finish_time(env, done):
    """Run to the end; the time ``done`` fired, or its error."""
    seen = []
    done.callbacks.append(
        lambda event: seen.append(env.now if event.ok else event.value)
    )
    env.run()
    return seen[0]


class TestFlattenedRemoteRead:
    """A remote read joins the replica read and both NIC legs at once."""

    def test_one_event_fewer_than_a_nested_join_same_finish(self):
        env, client, _network, block, serving, reader = two_node_read()
        read = client.read_block(block, reader)
        assert read.serving_node == serving
        flat_at = finish_time(env, read.done)
        flat_events = env.events_scheduled

        # The same read joined as (replica read, joined transfer).
        env, client, network, block, serving, reader = two_node_read()
        handle = client.namenode.datanode(serving).read_block(block)
        net = network.transfer(
            serving, reader, block.nbytes, tag=("read", block.block_id)
        )
        nested_at = finish_time(env, join_all(env, (handle.done, net)))

        assert flat_at == nested_at > 0
        assert flat_events == env.events_scheduled - 1

    @pytest.mark.parametrize("victim", ["serving", "reader"])
    def test_endpoint_failure_mid_read_fails_done(self, victim):
        env, client, network, block, serving, reader = two_node_read()
        read = client.read_block(block, reader)
        node = serving if victim == "serving" else reader
        env.timeout(0.01).callbacks.append(lambda _event: network.fail_node(node))
        error = finish_time(env, read.done)
        assert isinstance(error, NetworkError)
        assert node in str(error)

    def test_lost_transfer_fails_the_read_after_detection(self):
        env, client, network, block, _serving, reader = two_node_read()
        network.fault_hook = lambda src, dst, nbytes: (True, 0.0)
        read = client.read_block(block, reader)
        fail_at = []
        read.done.callbacks.append(
            lambda event: fail_at.append((env.now, type(event.value)))
        )
        env.run()
        assert fail_at == [(network.loss_detect_timeout, NetworkError)]

    def test_delayed_transfer_delivers_the_read_late(self):
        env, client, _network, block, _serving, reader = two_node_read()
        clean_at = finish_time(env, client.read_block(block, reader).done)
        env, client, network, block, _serving, reader = two_node_read()
        network.fault_hook = lambda src, dst, nbytes: (False, 0.5)
        delayed_at = finish_time(env, client.read_block(block, reader).done)
        # The delay outlasts the disk read; the NIC legs follow it.
        assert delayed_at == pytest.approx(0.5 + block.nbytes / network.bandwidth)
        assert delayed_at > clean_at


class TestWrites:
    def test_write_file_creates_replicated_blocks(self, env, namenode, client):
        done = {}

        def proc(env):
            yield client.write_file("/out", 128 * MB, writer_node="node0")
            done["at"] = env.now

        env.process(proc(env))
        env.run()
        assert namenode.exists("/out")
        metadata = namenode.get_file("/out")
        for block in metadata.blocks:
            locations = namenode.get_block_locations(block.block_id)
            assert len(locations) == 2
            for node in locations:
                assert namenode.datanode(node).has_block(block.block_id)

    def test_write_pipeline_uses_network_for_remote_replicas(
        self, env, namenode, client, network
    ):
        def proc(env):
            yield client.write_file("/out", 64 * MB, writer_node="node0")

        env.process(proc(env))
        env.run()
        # One remote replica crosses node0's NIC.
        assert network.nic("node0").bytes_moved == pytest.approx(64 * MB)

    def test_write_single_replica_local_is_instant(self, env, namenode, client):
        times = {}

        def proc(env):
            start = env.now
            yield client.write_file(
                "/out", 64 * MB, writer_node="node0", replication=1
            )
            times["elapsed"] = env.now - start

        env.process(proc(env))
        env.run()
        # NameNode may place the single replica remotely; but with a
        # preferred writer node it must be local -> absorbed instantly.
        assert times["elapsed"] == pytest.approx(0.0)


class TestIgnemApiWithoutMaster:
    def test_migrate_is_noop_without_master(self, client):
        client.create_file("/f", 64 * MB)
        client.migrate(["/f"], job_id="j1")  # must not raise
        client.evict(["/f"], job_id="j1")
