"""A same-node block read dies with its DataNode, even mid-seek.

Regression: a read still inside its HDD latency window when the node
failed used to be admitted to the dead node's disk afterwards and
succeed.  Remote reads always failed (their NIC legs are aborted), but
a read served on the reader's own node had no NIC leg to abort.
"""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.dfs import DataNodeError
from repro.storage import MB
from repro.storage.presets import HDD_LATENCY


def read_then_fail(fail_at):
    cluster = Cluster(ClusterConfig(num_nodes=4, replication=1, seed=0))
    block = cluster.client.create_file("/f", 64 * MB).blocks[0]
    holder = cluster.namenode.get_block_locations(block.block_id)[0]
    env = cluster.env
    outcome = {}

    def reader(env):
        read = cluster.client.read_block(block, reader_node=holder)
        outcome["source"] = read.source
        try:
            yield read.done
            outcome["result"] = ("ok", env.now)
        except DataNodeError:
            outcome["result"] = ("failed", env.now)

    def killer(env):
        yield env.timeout(fail_at)
        cluster.fail_node(holder)

    env.process(reader(env), name="reader")
    env.process(killer(env), name="killer")
    env.run()
    assert not cluster.datanodes[holder].alive
    return outcome


class TestLocalReadDuringFailure:
    def test_read_in_latency_window_fails_with_the_node(self):
        fail_at = HDD_LATENCY / 2
        outcome = read_then_fail(fail_at)
        assert outcome["source"] == "hdd"
        assert outcome["result"] == ("failed", pytest.approx(fail_at))

    def test_read_mid_transfer_fails_with_the_node(self):
        outcome = read_then_fail(0.1)
        assert outcome["result"] == ("failed", pytest.approx(0.1))
