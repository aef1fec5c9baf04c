"""The cluster's SimTransport wiring: endpoints, routing, determinism.

The refactor's contract in one suite: the cluster registers exactly the
endpoints something sends to (``"master"`` and ``"slave/<n>"``), client
requests travel as protocol messages, and none of it changes what the
simulator computes — the commands slaves receive are the *original*
objects (identity, not a codec copy), the DST command tap still fires,
and no ``transport.*`` metric appears.
"""

from repro import IgnemConfig, build_paper_testbed
from repro.core.config import RPC_LATENCY
from repro.storage import MB
from repro.transport.messages import EvictFilesRequest, MigrateFilesRequest

from tests.fixtures import make_ignem_cluster


def _recording_transport(cluster):
    """Wrap ``transport.request`` to log (endpoint, message) pairs."""
    calls = []
    original = cluster.transport.request

    def recording(endpoint, message):
        calls.append((endpoint, message))
        return original(endpoint, message)

    cluster.transport.request = recording
    return calls


class TestEndpointRegistration:
    def test_no_endpoints_before_ignem(self):
        cluster = build_paper_testbed(num_nodes=3, seed=0)
        assert cluster.transport.endpoints() == []

    def test_ignem_endpoints_registered_on_enable(self):
        cluster = make_ignem_cluster(num_nodes=3)
        assert cluster.transport.endpoints() == [
            "master",
            "slave/node0",
            "slave/node1",
            "slave/node2",
        ]

    def test_added_datanode_adds_only_its_slave(self):
        cluster = make_ignem_cluster(num_nodes=3)
        before = cluster.transport.endpoints()
        name = cluster.add_datanode().name
        assert cluster.transport.endpoints() == before + [f"slave/{name}"]


class TestClientRouting:
    def test_migrate_travels_as_protocol_message(self):
        cluster = make_ignem_cluster(num_nodes=3)
        calls = _recording_transport(cluster)
        cluster.client.create_file("/f", 128 * MB)
        cluster.rm.register_job("j1")
        cluster.client.migrate(["/f"], "j1")
        cluster.client.evict(["/f"], "j1")
        kinds = [(ep, type(msg).__name__) for ep, msg in calls]
        assert ("master", "MigrateFilesRequest") in kinds
        assert ("master", "EvictFilesRequest") in kinds
        migrate = next(m for _, m in calls if isinstance(m, MigrateFilesRequest))
        assert migrate.paths == ("/f",) and migrate.job_id == "j1"
        evict = next(m for _, m in calls if isinstance(m, EvictFilesRequest))
        assert evict.paths == ("/f",)

    def test_migration_still_completes_end_to_end(self):
        cluster = make_ignem_cluster(num_nodes=3)
        cluster.client.create_file("/f", 128 * MB)
        cluster.rm.register_job("j1")
        cluster.client.migrate(["/f"], "j1")
        cluster.run()
        total = sum(s.migrated_bytes for s in cluster.ignem_master.slaves())
        assert total == 128 * MB

    def test_master_shim_served_through_transport(self):
        """Experiments put a routing shim (e.g. the tier3 demo's size
        router) in front of the master by registering it as the
        ``"master"`` endpoint; client requests reach it as protocol
        messages."""
        from repro.core.master import dispatch_master_message

        cluster = make_ignem_cluster(num_nodes=3)
        calls = _recording_transport(cluster)

        class Shim:
            def __init__(self):
                self.migrations = []

            def request_migration(self, paths, job_id, implicit_eviction=False):
                self.migrations.append((tuple(paths), job_id))

            def handle_message(self, msg):
                return dispatch_master_message(self, msg)

        shim = Shim()
        cluster.transport.register("master", shim.handle_message)
        cluster.client.migrate(["/f"], "j1")
        assert shim.migrations == [(("/f",), "j1")]
        assert [(ep, type(m).__name__) for ep, m in calls] == [
            ("master", "MigrateFilesRequest")
        ]


class TestDeliveryIdentity:
    def test_slaves_receive_original_command_objects(self):
        """SimTransport must hand over the very objects the master
        built: work-item ``seq`` comes from a global counter, so a
        codec round-trip would consume counter values and perturb
        priority tie-breaks across the whole run."""
        tapped = []
        cluster = make_ignem_cluster(num_nodes=3)
        cluster.ignem_master.command_tap = (
            lambda node, kind, command, slave: tapped.append((kind, command))
        )
        cluster.client.create_file("/f", 128 * MB)
        cluster.rm.register_job("j1")
        cluster.client.migrate(["/f"], "j1")
        # Step past the command's RPC latency, not past a migration.
        cluster.env.run(until=2 * RPC_LATENCY)
        assert tapped and all(kind == "migrate" for kind, _ in tapped)
        queued = [
            queue.get().value
            for slave in cluster.ignem_master.slaves()
            for queue in slave.tier_queues.values()
            for _ in range(len(queue))
        ]
        assert queued
        tapped_items = [
            item for _, command in tapped for item in command.items
        ]
        for queued_item in queued:
            assert any(queued_item is item for item in tapped_items)


class TestTransportMetrics:
    def test_counters_absent_by_default(self):
        """The sim transport delivers without counting: a run's registry
        holds no ``transport.*`` metric."""
        cluster = build_paper_testbed(num_nodes=3, seed=0)
        cluster.enable_ignem(IgnemConfig())
        cluster.client.create_file("/f", 128 * MB)
        cluster.rm.register_job("j1")
        cluster.client.migrate(["/f"], "j1")
        cluster.run()
        assert not any(
            name.startswith("transport.") for name in cluster.obs.registry.names()
        )
