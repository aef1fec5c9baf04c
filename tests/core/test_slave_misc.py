"""Additional slave behaviours: purging mid-wait, queue introspection,
implicit set handling, and migration records' fields."""

import pytest

from repro import IgnemConfig
from repro.core.config import RPC_LATENCY
from repro.storage import GB, MB

from .conftest import make_cluster


class TestQueueIntrospection:
    def test_pending_migrations_counts_queued_work(self):
        cluster = make_cluster(num_nodes=1, replication=1)
        cluster.client.create_file("/f", 640 * MB)
        cluster.rm.register_job("j1")
        slave = cluster.ignem_slaves["node0"]
        landed = []
        receive = slave.receive_migrate

        def spy(command):
            accepted = receive(command)
            landed.append((cluster.env.now, slave.pending_migrations))
            return accepted

        slave.receive_migrate = spy
        cluster.ignem_master.request_migration(["/f"], "j1")
        # The command is in flight for one RPC latency.
        assert slave.pending_migrations == 0
        cluster.run()
        # It lands all ten blocks at once: the idle worker takes the
        # first straight away, the other nine queue, and they drain.
        assert landed == [(RPC_LATENCY, 9)]
        assert slave.pending_migrations == 0

    def test_repr_mentions_state(self):
        cluster = make_cluster(num_nodes=1, replication=1)
        slave = cluster.ignem_slaves["node0"]
        assert "node0" in repr(slave)


class TestPurgeDuringCapacityWait:
    def test_purge_while_block_waits_for_space(self):
        config = IgnemConfig(buffer_capacity=64 * MB)
        cluster = make_cluster(ignem_config=config, num_nodes=1, replication=1)
        cluster.client.create_file("/a", 64 * MB)
        cluster.client.create_file("/b", 64 * MB)
        cluster.rm.register_job("j-a")
        cluster.rm.register_job("j-b")
        cluster.ignem_master.request_migration(["/a"], "j-a")
        cluster.ignem_master.request_migration(["/b"], "j-b")
        cluster.run()
        slave = cluster.ignem_slaves["node0"]
        assert slave.migrated_bytes == 64 * MB  # /b waits for space
        slave.purge_all()
        assert slave.migrated_bytes == 0
        assert slave.reference_count() == 0
        # The simulation still drains (the waiting worker sees its refs
        # vanished and skips).
        cluster.run()


class TestMigrationRecordFields:
    def test_completed_record_carries_node_and_bytes(self):
        cluster = make_cluster(num_nodes=1, replication=1)
        cluster.client.create_file("/f", 64 * MB)
        cluster.rm.register_job("j1")
        cluster.ignem_master.request_migration(["/f"], "j1")
        cluster.run()
        (record,) = cluster.collector.completed_migrations()
        assert record.node == "node0"
        assert record.nbytes == 64 * MB
        assert record.enqueued_at <= record.start <= record.end
        assert record.duration > 0

    def test_memory_samples_match_timeline(self):
        cluster = make_cluster(num_nodes=1, replication=1)
        cluster.client.create_file("/f", 128 * MB)
        cluster.rm.register_job("j1")
        cluster.ignem_master.request_migration(["/f"], "j1")
        cluster.run()
        slave = cluster.ignem_slaves["node0"]
        samples = [
            (s.time, s.migrated_bytes)
            for s in cluster.collector.memory_samples
            if s.node == "node0"
        ]
        # The collector's samples are exactly the slave's timeline minus
        # the initial zero point.
        assert samples == slave.usage_timeline[1:]


class TestImplicitJobBookkeeping:
    def test_implicit_mode_is_per_job(self):
        cluster = make_cluster(num_nodes=1, replication=1)
        cluster.client.create_file("/f", 64 * MB)
        cluster.rm.register_job("implicit-job")
        cluster.rm.register_job("explicit-job")
        cluster.ignem_master.request_migration(
            ["/f"], "implicit-job", implicit_eviction=True
        )
        cluster.ignem_master.request_migration(
            ["/f"], "explicit-job", implicit_eviction=False
        )
        cluster.run()
        block = cluster.namenode.file_blocks("/f")[0]
        slave = cluster.ignem_slaves["node0"]

        def read_as(env, job_id):
            read = cluster.client.read_block(block, "node0", job_id=job_id)
            yield read.done

        # The explicit job's read leaves its reference in place...
        cluster.env.process(read_as(cluster.env, "explicit-job"))
        cluster.run()
        assert "explicit-job" in slave.reference_list(block.block_id)
        # ...the implicit job's read drops its own.
        cluster.env.process(read_as(cluster.env, "implicit-job"))
        cluster.run()
        assert "implicit-job" not in slave.reference_list(block.block_id)
        assert slave.block_migrated(block.block_id)  # explicit ref remains
