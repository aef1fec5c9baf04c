"""The paper's guarantees on hand-built clusters: clean runs pass the
DST oracles, corrupted state is flagged, and the replica-count helpers
the injector shares with them hold their rules."""

from repro.dst.oracles import (
    oracle_end_state,
    oracle_locality_index,
    oracle_no_data_loss,
    oracle_replication,
)
from repro.faults import data_loss_violations, replication_violations
from repro.storage import GB, MB
from tests.fixtures import make_ignem_cluster, oracle_context


def make_cluster(**kwargs):
    return make_ignem_cluster(buffer_capacity=1 * GB, **kwargs)


def migrated_cluster():
    cluster = make_cluster()
    cluster.rm.register_job("j1")
    cluster.client.create_file("/f", 256 * MB)
    cluster.ignem_master.request_migration(["/f"], "j1")
    cluster.run()
    return cluster


class TestCleanRun:
    def test_no_violations_on_a_healthy_cluster(self):
        ctx = oracle_context(migrated_cluster())
        for oracle in (
            oracle_locality_index,
            oracle_replication,
            oracle_no_data_loss,
        ):
            assert oracle(ctx) == []

    def test_no_violations_after_eviction(self):
        cluster = migrated_cluster()
        cluster.ignem_master.request_eviction(["/f"], "j1")
        cluster.rm.unregister_job("j1")
        cluster.run()
        ctx = oracle_context(cluster)
        for oracle in (
            oracle_end_state,
            oracle_locality_index,
            oracle_replication,
            oracle_no_data_loss,
        ):
            assert oracle(ctx) == []


class TestCorruptionDetection:
    def test_stale_memory_index_entry_is_flagged(self):
        cluster = migrated_cluster()
        block = cluster.namenode.file_blocks("/f")[0]
        holders = cluster.namenode.memory_nodes(block.block_id)
        ghost = next(
            name for name in cluster.node_names() if name not in holders
        )
        cluster.namenode.locality_index.update(ghost, "mem", block.block_id, True)
        violations = oracle_locality_index(oracle_context(cluster))
        assert any(block.block_id in v for v in violations)

    def test_dangling_reference_is_flagged(self):
        cluster = migrated_cluster()
        # The job vanishes from the scheduler without ever evicting: the
        # refs it left behind are exactly what III-A4's sweep hunts.
        cluster.rm.unregister_job("j1")
        violations = oracle_end_state(oracle_context(cluster))
        assert any("j1" in v for v in violations)

    def test_dangling_reference_on_a_down_slave_is_flagged(self):
        cluster = migrated_cluster()
        cluster.rm.unregister_job("j1")
        slave = next(
            s for s in cluster.ignem_master.slaves() if s.reference_count()
        )
        # A crash purge that forgot the reference lists.
        slave.alive = False
        violations = oracle_end_state(oracle_context(cluster))
        assert any(
            "down slave" in v and slave.name in v and "j1" in v
            for v in violations
        )


class TestDataLoss:
    def test_replication_one_files_are_exempt(self):
        cluster = make_cluster()
        cluster.client.create_file("/single", 64 * MB, replication=1)
        block = cluster.namenode.file_blocks("/single")[0]
        (holder,) = cluster.namenode.get_block_locations(block.block_id)
        cluster.fail_node(holder)
        assert data_loss_violations(cluster.namenode, {holder}, when=0.0) == []

    def test_losing_all_replicas_below_tolerance_is_flagged(self):
        cluster = make_cluster()
        cluster.client.create_file("/r2", 64 * MB)
        block = cluster.namenode.file_blocks("/r2")[0]
        # Simulate a bug: the location list empties although only one
        # node is down — a replication-2 file must survive that.
        cluster.namenode._locations[block.block_id].clear()
        violations = data_loss_violations(cluster.namenode, {"node0"}, when=1.0)
        assert any(block.block_id in v for v in violations)

    def test_end_of_run_exemption_counts_nodes_down_at_the_end(self):
        # Two servers down at once, then one back: a replication-2 file
        # that lost every replica is exempt only while both are down.
        cluster = make_cluster()
        cluster.client.create_file("/r2", 64 * MB)
        block = cluster.namenode.file_blocks("/r2")[0]
        cluster.namenode._locations[block.block_id].clear()
        injector = oracle_context(cluster).injector
        injector._down.update({"node0", "node1"})
        assert oracle_no_data_loss(oracle_context(cluster, injector)) == []
        injector._down.discard("node1")
        violations = oracle_no_data_loss(oracle_context(cluster, injector))
        assert any(block.block_id in v for v in violations)


class TestReplicationRestored:
    """A crash with no restart used to slip past the checks: every
    replica list kept >= 1 entry, so the data-loss invariant stayed
    quiet while blocks sat permanently under-replicated."""

    def test_permanent_loss_without_repair_is_convicted(self):
        cluster = make_cluster()  # no re-replication monitor
        cluster.client.create_file("/f", 128 * MB)
        holder = cluster.namenode.get_block_locations(
            cluster.namenode.file_blocks("/f")[0].block_id
        )[0]
        cluster.fail_node(holder)
        cluster.run()
        violations = oracle_replication(oracle_context(cluster))
        assert any("under-replication" in v for v in violations)

    def test_self_healing_clears_the_conviction(self):
        cluster = make_cluster(rereplication=True)
        cluster.client.create_file("/f", 128 * MB)
        holder = cluster.namenode.get_block_locations(
            cluster.namenode.file_blocks("/f")[0].block_id
        )[0]
        cluster.fail_node(holder)
        cluster.run()
        ctx = oracle_context(cluster)
        assert oracle_replication(ctx) == []
        assert oracle_no_data_loss(ctx) == []

    def test_duplicate_holder_is_convicted(self):
        cluster = make_cluster()
        cluster.client.create_file("/f", 64 * MB)
        block = cluster.namenode.file_blocks("/f")[0]
        holders = cluster.namenode._locations[block.block_id]
        holders.append(holders[0])
        violations = replication_violations(cluster.namenode, when=1.0)
        assert any("twice" in v for v in violations)

    def test_target_is_capped_by_live_nodes(self):
        # Killing down to fewer nodes than the replication factor is not
        # the repair machinery's fault: no conviction below the cap.
        cluster = make_cluster(num_nodes=2, rereplication=True)
        cluster.client.create_file("/f", 64 * MB)
        cluster.fail_node("node1")
        cluster.run()
        assert replication_violations(cluster.namenode, when=1.0) == []
