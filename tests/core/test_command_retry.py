"""Master→slave command robustness: timeout/retry, reroute, abandonment."""

import pytest

from repro.core.config import COMMAND_BACKOFF, COMMAND_BACKOFF_FACTOR, COMMAND_TIMEOUT
from repro.storage import MB
from tests.fixtures import make_ignem_cluster


def make_cluster(num_nodes=4, replication=2, **config_kwargs):
    return make_ignem_cluster(
        num_nodes=num_nodes, replication=replication, **config_kwargs
    )


class DropFirst:
    """rpc_fault hook that loses the first ``n`` sends."""

    def __init__(self, n):
        self.remaining = n

    def __call__(self, node):
        if self.remaining > 0:
            self.remaining -= 1
            return "lost"
        return None


class TestRetry:
    def test_lost_command_is_retried_and_lands(self):
        cluster = make_cluster()
        master = cluster.ignem_master
        master.rpc_fault = DropFirst(1)
        cluster.rm.register_job("j1")
        cluster.client.create_file("/f", 128 * MB)
        master.request_migration(["/f"], "j1")
        cluster.run()

        assert master.metrics.value("ignem.master.command_retries") == 1
        assert master.metrics.value("ignem.master.commands_abandoned") == 0
        block = cluster.namenode.file_blocks("/f")[0]
        assert any(
            s.block_migrated(block.block_id) for s in master.slaves()
        )

    def test_retry_backoff_is_paid(self):
        cluster = make_cluster()
        master = cluster.ignem_master
        master.rpc_fault = DropFirst(2)
        cluster.rm.register_job("j1")
        cluster.client.create_file("/f", 128 * MB)

        delivered = []
        original = cluster.ignem_slaves.copy()
        for name, slave in original.items():
            real = slave.receive_migrate

            def spy(command, _real=real):
                delivered.append(cluster.env.now)
                return _real(command)

            slave.receive_migrate = spy

        master.request_migration(["/f"], "j1")
        cluster.run()

        # Two lost sends: latency + (timeout + backoff) + (timeout +
        # backoff * factor) before the third attempt's latency delivers.
        assert delivered
        assert delivered[0] == pytest.approx(
            3 * 0.002
            + (COMMAND_TIMEOUT + COMMAND_BACKOFF)
            + (COMMAND_TIMEOUT + COMMAND_BACKOFF * COMMAND_BACKOFF_FACTOR)
        )
        assert master.metrics.value("ignem.master.command_retries") == 2


class TestReroute:
    def test_dead_slave_falls_over_to_live_replica(self):
        """Kill each replica's slave in turn: whichever one the master
        picks first, the block always lands on a live replica, and the
        reroute path fires for at least one of the two placements."""
        rerouted = 0
        for victim_index in (0, 1):
            cluster = make_cluster()
            master = cluster.ignem_master
            cluster.rm.register_job("j1")
            cluster.client.create_file("/f", 128 * MB)
            block = cluster.namenode.file_blocks("/f")[0]
            replicas = cluster.namenode.get_block_locations(block.block_id)
            victim = replicas[victim_index]
            cluster.ignem_slaves[victim].alive = False
            master.request_migration(["/f"], "j1")
            cluster.run()
            rerouted += master.metrics.value("ignem.master.commands_rerouted")
            migrated_on = [
                name
                for name, slave in cluster.ignem_slaves.items()
                if slave.block_migrated(block.block_id)
            ]
            assert migrated_on
            assert victim not in migrated_on
            assert master.metrics.value("ignem.master.commands_abandoned") == 0
        assert rerouted >= 1


class TestAbandonment:
    def test_no_live_replica_abandons_cleanly(self):
        cluster = make_cluster(num_nodes=2, replication=1)
        master = cluster.ignem_master
        cluster.rm.register_job("j1")
        cluster.client.create_file("/f", 128 * MB)
        block = cluster.namenode.file_blocks("/f")[0]
        (holder,) = cluster.namenode.get_block_locations(block.block_id)
        cluster.ignem_slaves[holder].alive = False
        master.request_migration(["/f"], "j1")
        cluster.run()

        assert master.metrics.value("ignem.master.commands_abandoned") >= 1
        assert all(
            not slave.block_migrated(block.block_id)
            for slave in master.slaves()
        )

    def test_lost_evict_is_abandoned_not_rerouted(self):
        cluster = make_cluster()
        master = cluster.ignem_master
        cluster.rm.register_job("j1")
        cluster.client.create_file("/f", 128 * MB)
        master.request_migration(["/f"], "j1")
        cluster.run()

        master.rpc_fault = lambda node: "lost"
        master.request_eviction(["/f"], "j1")
        cluster.run()
        master.rpc_fault = None

        # Evictions are idempotent cleanup: after retries they are
        # dropped (the liveness sweep is the backstop), never rerouted.
        assert master.metrics.value("ignem.master.commands_abandoned") >= 1
        assert master.metrics.value("ignem.master.commands_rerouted") == 0


class TestDeadMaster:
    """A command waiting on its retry timer belongs to the master that
    sent it: once that master has died (or restarted), the retry must
    neither land nor be retried again."""

    def _lose_first_send_then(self, action):
        cluster = make_cluster()
        master = cluster.ignem_master
        master.rpc_fault = DropFirst(1)
        cluster.rm.register_job("j1")
        cluster.client.create_file("/f", 128 * MB)

        delivered = []
        for slave in cluster.ignem_slaves.values():
            real = slave.receive_migrate

            def spy(command, _real=real):
                delivered.append(cluster.env.now)
                return _real(command)

            slave.receive_migrate = spy

        master.request_migration(["/f"], "j1")
        # The lost first send is waiting out its timeout when the master
        # goes down.
        cluster.env.timeout(0.1).callbacks.append(lambda _event: action(master))
        cluster.run()
        return master, delivered

    def test_failed_master_sends_no_retry(self):
        master, delivered = self._lose_first_send_then(
            lambda master: master.fail()
        )
        assert delivered == []
        assert master.metrics.value("ignem.master.command_retries") == 1
        assert all(s.reference_count() == 0 for s in master.slaves())

    def test_restarted_master_drops_its_predecessors_retry(self):
        def fail_and_restart(master):
            master.fail()
            master.restart()

        master, delivered = self._lose_first_send_then(fail_and_restart)
        assert master.alive
        assert delivered == []
        assert all(s.reference_count() == 0 for s in master.slaves())
