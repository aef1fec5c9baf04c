"""FaultInjector: schedules drive real cluster failure hooks."""

import pytest

from repro.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.net.network import NetworkError
from repro.storage import MB
from tests.fixtures import make_ignem_cluster as make_cluster


def run_with(cluster, schedule, until=None):
    injector = FaultInjector(cluster, schedule)
    injector.start()
    cluster.run(until=until)
    return injector


class TestCrashRestart:
    def test_crash_takes_node_down_and_restart_revives(self):
        cluster = make_cluster()
        schedule = FaultSchedule(
            (
                FaultEvent(1.0, "crash", "node1"),
                FaultEvent(5.0, "restart", "node1"),
            )
        )
        observations = []

        def probe(env):
            yield env.timeout(2.0)
            observations.append(
                (
                    cluster.datanodes["node1"].alive,
                    cluster.network.node_is_down("node1"),
                )
            )

        cluster.env.process(probe(cluster.env), name="probe")
        injector = run_with(cluster, schedule)

        assert observations == [(False, True)]
        assert cluster.datanodes["node1"].alive
        assert not cluster.network.node_is_down("node1")
        assert injector.down_nodes == set()
        assert [e.kind for _, e in injector.applied] == ["crash", "restart"]

    def test_crash_is_idempotent(self):
        cluster = make_cluster()
        schedule = FaultSchedule(
            (
                FaultEvent(1.0, "crash", "node1"),
                FaultEvent(2.0, "crash", "node1"),
                FaultEvent(5.0, "restart", "node1"),
            )
        )
        injector = run_with(cluster, schedule)
        # The duplicate crash is swallowed, not applied twice.
        assert [e.kind for _, e in injector.applied] == ["crash", "restart"]


class TestSlowDisk:
    def test_bandwidth_degrades_then_recovers(self):
        cluster = make_cluster()
        nominal = cluster.datanodes["node2"].disk.bandwidth
        schedule = FaultSchedule(
            (
                FaultEvent(1.0, "slow_disk_start", "node2", 0.1),
                FaultEvent(3.0, "slow_disk_end", "node2"),
            )
        )
        inside = []

        def probe(env):
            yield env.timeout(2.0)
            inside.append(cluster.datanodes["node2"].disk.bandwidth)

        cluster.env.process(probe(cluster.env), name="probe")
        run_with(cluster, schedule)

        assert inside == [pytest.approx(nominal * 0.1)]
        assert cluster.datanodes["node2"].disk.bandwidth == pytest.approx(nominal)


class TestNetLoss:
    def test_window_installs_and_clears_hooks(self):
        cluster = make_cluster()
        schedule = FaultSchedule(
            (
                FaultEvent(1.0, "net_loss_start", None, 1.0),
                FaultEvent(3.0, "net_loss_end"),
            )
        )
        outcomes = []

        def probe(env):
            yield env.timeout(2.0)
            assert cluster.network.fault_hook is not None
            try:
                yield cluster.network.transfer("node0", "node1", 1 * MB)
                outcomes.append("delivered")
            except NetworkError:
                outcomes.append("lost")

        cluster.env.process(probe(cluster.env), name="probe")
        run_with(cluster, schedule)

        # Loss probability 1.0: the in-window transfer must be dropped.
        assert outcomes == ["lost"]
        assert cluster.network.fault_hook is None
        assert cluster.ignem_master.rpc_fault is None


class TestElasticityEvents:
    def test_kill_is_a_crash_with_no_restart(self):
        cluster = make_cluster(rereplication=True)
        cluster.client.create_file("/f", 128 * MB)
        schedule = FaultSchedule((FaultEvent(1.0, "kill", "node1"),))
        injector = run_with(cluster, schedule)
        assert [e.kind for _, e in injector.applied] == ["kill"]
        assert not cluster.datanodes["node1"].alive
        assert cluster.network.node_is_down("node1")
        # Permanent loss: repair restored every block elsewhere.
        assert cluster.replication_monitor.under_replicated_blocks() == []

    def test_kill_of_a_down_node_is_swallowed(self):
        cluster = make_cluster()
        schedule = FaultSchedule(
            (
                FaultEvent(1.0, "crash", "node1"),
                FaultEvent(2.0, "kill", "node1"),
            )
        )
        injector = run_with(cluster, schedule)
        assert [e.kind for _, e in injector.applied] == ["crash"]

    def test_join_adds_a_live_datanode(self):
        cluster = make_cluster(rereplication=True)
        schedule = FaultSchedule((FaultEvent(1.0, "join", "node4"),))
        injector = run_with(cluster, schedule)
        assert [e.kind for _, e in injector.applied] == ["join"]
        assert "node4" in cluster.datanodes
        assert "node4" in [
            dn.name for dn in cluster.namenode.live_datanodes()
        ]

    def test_join_of_an_existing_name_is_swallowed(self):
        cluster = make_cluster()
        schedule = FaultSchedule((FaultEvent(1.0, "join", "node0"),))
        injector = run_with(cluster, schedule)
        assert injector.applied == []

    def test_decommission_drains_then_releases(self):
        cluster = make_cluster(rereplication=True)
        cluster.client.create_file("/f", 128 * MB)
        schedule = FaultSchedule((FaultEvent(1.0, "decommission", "node2"),))
        injector = run_with(cluster, schedule)
        assert [e.kind for _, e in injector.applied] == ["decommission"]
        assert [node for _, node in cluster.decommission_log] == ["node2"]
        assert "node2" in cluster.released_nodes
        for block in cluster.namenode.file_blocks("/f"):
            live = cluster.namenode.get_block_locations(block.block_id)
            assert len(live) == 2
            assert "node2" not in live

    def test_faults_against_a_released_node_are_swallowed(self):
        cluster = make_cluster(rereplication=True)
        cluster.client.create_file("/f", 64 * MB)
        schedule = FaultSchedule(
            (
                FaultEvent(1.0, "decommission", "node2"),
                FaultEvent(200.0, "crash", "node2"),
                FaultEvent(201.0, "kill", "node2"),
                FaultEvent(202.0, "restart", "node2"),
            )
        )
        injector = run_with(cluster, schedule)
        assert [e.kind for _, e in injector.applied] == ["decommission"]


class TestDeterminism:
    def test_identical_runs_apply_identical_faults(self):
        def one_run():
            cluster = make_cluster()
            schedule = FaultSchedule.random(7, cluster.node_names(), horizon=60.0)
            injector = run_with(cluster, schedule)
            return injector.applied

        assert one_run() == one_run()

    def test_empty_schedule_is_a_no_op(self):
        cluster = make_cluster()
        injector = run_with(cluster, FaultSchedule(()))
        assert injector.applied == []
        assert cluster.env.now == 0.0
