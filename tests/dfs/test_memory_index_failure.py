"""Memory-locality index stays consistent across node failures.

Regression for the stale-entry bug: a node that crashes with an
in-flight or queued migration must leave no entry in the NameNode's
push-maintained index — including when the crash lands *during* the
migration's disk read, whose completion callback used to insert into
the already-flushed cache.
"""

from repro.dst.oracles import oracle_locality_index
from repro.storage import MB
from tests.fixtures import make_ignem_cluster, oracle_context


def make_cluster(num_nodes=2, replication=2):
    return make_ignem_cluster(num_nodes=num_nodes, replication=replication)


def index_nodes(cluster):
    nodes = set()
    for holders in cluster.namenode.locality_index.blocks().values():
        nodes |= set(holders)
    return nodes


class TestIndexAfterFailure:
    def test_crash_mid_migration_leaves_no_stale_entry(self):
        cluster = make_cluster()
        cluster.rm.register_job("j1")
        cluster.client.create_file("/f", 256 * MB)

        def chaos(env):
            cluster.ignem_master.request_migration(["/f"], "j1")
            # Strike while the first block's disk read is in flight and
            # the second is still queued.
            yield env.timeout(0.05)
            victims = [
                name
                for name, slave in cluster.ignem_slaves.items()
                if slave.reference_count() > 0
            ]
            assert victims
            cluster.fail_node(victims[0])

        cluster.env.process(chaos(cluster.env), name="chaos")
        cluster.run()

        dead = [n for n, d in cluster.datanodes.items() if not d.alive]
        assert len(dead) == 1
        assert dead[0] not in index_nodes(cluster)
        assert oracle_locality_index(oracle_context(cluster)) == []

    def test_crash_after_migration_purges_entries(self):
        cluster = make_cluster()
        cluster.rm.register_job("j1")
        cluster.client.create_file("/f", 128 * MB)
        cluster.ignem_master.request_migration(["/f"], "j1")
        cluster.run()

        block = cluster.namenode.file_blocks("/f")[0]
        holders = set(cluster.namenode.memory_nodes(block.block_id))
        assert holders
        victim = sorted(holders)[0]
        cluster.fail_node(victim)

        assert victim not in cluster.namenode.memory_nodes(block.block_id)
        assert oracle_locality_index(oracle_context(cluster)) == []

    def test_restarted_node_reindexes_fresh_migrations(self):
        cluster = make_cluster(num_nodes=1, replication=1)
        cluster.rm.register_job("j1")
        cluster.client.create_file("/f", 128 * MB)

        def chaos(env):
            cluster.ignem_master.request_migration(["/f"], "j1")
            yield env.timeout(0.05)
            cluster.fail_node("node0")
            yield env.timeout(1.0)
            cluster.restart_node("node0")
            yield env.timeout(0.1)
            cluster.ignem_master.request_migration(["/f"], "j1")

        cluster.env.process(chaos(cluster.env), name="chaos")
        cluster.run()

        block = cluster.namenode.file_blocks("/f")[0]
        assert cluster.namenode.memory_nodes(block.block_id) == frozenset(
            {"node0"}
        )
        assert oracle_locality_index(oracle_context(cluster)) == []
