"""Failure semantics of the network: dead nodes fail fast, never hang."""

import pytest

from repro.net.network import Network, NetworkError
from repro.sim import Environment
from repro.storage import MB


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def network(env):
    net = Network(env, bandwidth=100 * MB)
    for index in range(3):
        net.add_node(f"node{index}")
    return net


class TestMidTransferFailure:
    def test_failing_a_node_mid_transfer_fails_the_waiter(self, env, network):
        """Regression: a transfer whose endpoint dies must fail at the
        kill instant with NetworkError — not hang and not complete."""
        outcomes = []

        def reader(env):
            start = env.now
            try:
                # 100 MB at 100 MB/s: would finish at t=1.0.
                yield network.transfer("node0", "node1", 100 * MB)
                outcomes.append(("completed", env.now - start))
            except NetworkError:
                outcomes.append(("failed", env.now - start))

        def killer(env):
            yield env.timeout(0.25)
            network.fail_node("node1")

        env.process(reader(env), name="reader")
        env.process(killer(env), name="killer")
        env.run()

        assert outcomes == [("failed", 0.25)]
        assert network.transfers_failed >= 1

    def test_failing_the_source_also_fails_the_transfer(self, env, network):
        outcomes = []

        def reader(env):
            try:
                yield network.transfer("node0", "node1", 100 * MB)
                outcomes.append("completed")
            except NetworkError:
                outcomes.append("failed")

        def killer(env):
            yield env.timeout(0.25)
            network.fail_node("node0")

        env.process(reader(env), name="reader")
        env.process(killer(env), name="killer")
        env.run()
        assert outcomes == ["failed"]


class TestDownNodeRefusal:
    def test_new_transfer_to_down_node_fails_deterministically(self, env, network):
        network.fail_node("node2")
        outcomes = []

        def reader(env):
            start = env.now
            try:
                yield network.transfer("node0", "node2", 1 * MB)
            except NetworkError:
                outcomes.append(env.now - start)

        env.process(reader(env), name="reader")
        env.run()
        # Refused on the spot: no timeout, no hang.
        assert outcomes == [0.0]

    def test_restore_brings_the_node_back(self, env, network):
        network.fail_node("node2")
        network.restore_node("node2")
        assert not network.node_is_down("node2")
        outcomes = []

        def reader(env):
            yield network.transfer("node0", "node2", 1 * MB)
            outcomes.append(env.now)

        env.process(reader(env), name="reader")
        env.run()
        assert outcomes == [pytest.approx(1 * MB / (100 * MB))]


class TestFaultHook:
    def test_dropped_message_fails_after_detection_timeout(self, env, network):
        network.fault_hook = lambda src, dst, nbytes: (True, 0.0)
        outcomes = []

        def reader(env):
            try:
                yield network.transfer("node0", "node1", 1 * MB)
            except NetworkError:
                outcomes.append(env.now)

        env.process(reader(env), name="reader")
        env.run()
        assert outcomes == [pytest.approx(network.loss_detect_timeout)]

    def test_extra_delay_slows_but_delivers(self, env, network):
        network.fault_hook = lambda src, dst, nbytes: (False, 0.5)
        outcomes = []

        def reader(env):
            yield network.transfer("node0", "node1", 1 * MB)
            outcomes.append(env.now)

        env.process(reader(env), name="reader")
        env.run()
        assert outcomes == [pytest.approx(0.5 + 1 * MB / (100 * MB))]

    def test_clean_path_without_hook_is_undisturbed(self, env, network):
        outcomes = []

        def reader(env):
            yield network.transfer("node0", "node1", 1 * MB)
            outcomes.append(env.now)

        env.process(reader(env), name="reader")
        env.run()
        assert outcomes == [pytest.approx(1 * MB / (100 * MB))]


def settle(env, legs):
    """Run to the end; each leg's ``(time, ok)`` as it completed."""
    outcomes = [None] * len(legs)
    for index, leg in enumerate(legs):
        leg.callbacks.append(
            lambda event, index=index: outcomes.__setitem__(
                index, (env.now, event.ok)
            )
        )
    env.run()
    return outcomes


class TestTransferLegs:
    """The events ``transfer_legs`` hands to a caller's own join."""

    def test_clean_path_is_one_leg_per_nic(self, env, network):
        assert settle(env, network.transfer_legs("node0", "node1", 1 * MB)) == [
            (pytest.approx(0.01), True),
            (pytest.approx(0.01), True),
        ]

    def test_same_node_copy_has_no_legs(self, network):
        assert network.transfer_legs("node0", "node0", 1 * MB) == ()

    def test_down_node_is_one_refused_leg(self, env, network):
        network.fail_node("node1")
        (leg,) = network.transfer_legs("node0", "node1", 1 * MB)
        assert settle(env, (leg,)) == [(0.0, False)]
        assert isinstance(leg.value, NetworkError)

    def test_lost_message_is_one_leg_failing_after_detection(self, env, network):
        network.fault_hook = lambda src, dst, nbytes: (True, 0.0)
        (leg,) = network.transfer_legs("node0", "node1", 1 * MB)
        assert settle(env, (leg,)) == [(network.loss_detect_timeout, False)]
        assert isinstance(leg.value, NetworkError)

    def test_delay_is_one_leg_delivering_late(self, env, network):
        network.fault_hook = lambda src, dst, nbytes: (False, 0.5)
        legs = network.transfer_legs("node0", "node1", 1 * MB)
        assert settle(env, legs) == [(pytest.approx(0.5 + 0.01), True)]

    def test_failing_an_endpoint_mid_transfer_fails_its_leg(self, env, network):
        send, recv = network.transfer_legs("node0", "node1", 100 * MB)
        env.timeout(0.25).callbacks.append(
            lambda _event: network.fail_node("node1")
        )
        outcomes = settle(env, (send, recv))
        # The dead node's leg fails at the kill; the live NIC drains.
        assert outcomes[1] == (0.25, False)
        assert isinstance(recv.value, NetworkError)
        assert outcomes[0][1] is True
