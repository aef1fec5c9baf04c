"""TransferDevice fault surface: bandwidth changes and host death."""

import pytest

from repro.sim import Environment
from repro.storage.device import TransferDevice, no_penalty


class HostDied(Exception):
    pass


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def device(env):
    return TransferDevice(env, "disk", bandwidth=100.0, penalty=no_penalty)


class TestSetBandwidth:
    def test_mid_transfer_change_reschedules(self, env, device):
        finished = []

        def reader(env):
            yield device.transfer(100.0)
            finished.append(env.now)

        def throttle(env):
            yield env.timeout(0.5)
            device.set_bandwidth(50.0)

        env.process(reader(env), name="reader")
        env.process(throttle(env), name="throttle")
        env.run()
        # 50 bytes at 100 B/s, then the remaining 50 at 50 B/s.
        assert finished == [pytest.approx(1.5)]
        assert device.bandwidth == 50.0

    def test_restoring_bandwidth_speeds_back_up(self, env, device):
        finished = []

        def reader(env):
            yield device.transfer(100.0)
            finished.append(env.now)

        def wobble(env):
            yield env.timeout(0.25)
            device.set_bandwidth(25.0)
            yield env.timeout(1.0)
            device.set_bandwidth(100.0)

        env.process(reader(env), name="reader")
        env.process(wobble(env), name="wobble")
        env.run()
        # 25B fast + 25B slow + 50B fast = 0.25 + 1.0 + 0.5 seconds.
        assert finished == [pytest.approx(1.75)]

    def test_rejects_non_positive_bandwidth(self, device):
        with pytest.raises(ValueError):
            device.set_bandwidth(0.0)


class TestFailAll:
    def test_waiters_see_the_error(self, env, device):
        outcomes = []

        def reader(env, nbytes):
            try:
                yield device.transfer(nbytes)
                outcomes.append("done")
            except HostDied:
                outcomes.append(env.now)

        def killer(env):
            yield env.timeout(0.5)
            assert device.fail_all(HostDied("host down")) == 2

        env.process(reader(env, 100.0), name="r1")
        env.process(reader(env, 200.0), name="r2")
        env.process(killer(env), name="killer")
        env.run()
        assert outcomes == [0.5, 0.5]

    def test_device_serves_new_transfers_after_failure(self, env, device):
        finished = []

        def story(env):
            doomed = device.transfer(100.0)
            yield env.timeout(0.1)
            device.fail_all(HostDied("down"))
            try:
                yield doomed
            except HostDied:
                pass
            yield device.transfer(50.0)
            finished.append(env.now)

        env.process(story(env), name="story")
        env.run()
        assert finished == [pytest.approx(0.1 + 0.5)]

    def test_unwaited_failed_transfer_does_not_crash_the_engine(self, env, device):
        """A transfer whose waiter was interrupted in the same host
        failure leaves a callback-less failed event; fail_all must sink
        it instead of letting the engine raise it as unhandled."""

        def orphan(env):
            yield env.timeout(10.0)  # parked; never waits on the transfer

        device.transfer(100.0)
        env.process(orphan(env), name="orphan")

        def killer(env):
            yield env.timeout(0.5)
            device.fail_all(HostDied("down"))

        env.process(killer(env), name="killer")
        env.run()  # must not raise HostDied

    def test_fail_all_on_idle_device_is_a_no_op(self, device):
        assert device.fail_all(HostDied("down")) == 0


class TestFailAllInLatencyWindow:
    """A transfer still waiting out the device latency dies with the host."""

    @pytest.fixture
    def slow_device(self, env):
        return TransferDevice(
            env, "hdd", bandwidth=100.0, latency=0.5, penalty=no_penalty
        )

    def test_waiter_fails_at_the_failure_instant(self, env, slow_device):
        outcomes = []

        def reader(env, nbytes):
            try:
                yield slow_device.transfer(nbytes)
                outcomes.append(("done", env.now))
            except HostDied:
                outcomes.append(("failed", env.now))

        def killer(env):
            yield env.timeout(0.2)
            assert slow_device.fail_all(HostDied("host down")) == 2

        env.process(reader(env, 100.0), name="r1")
        env.process(reader(env, 0.0), name="r2")
        env.process(killer(env), name="killer")
        env.run()
        assert outcomes == [("failed", 0.2), ("failed", 0.2)]
        # Never admitted: the dead device moved nothing.
        assert slow_device.active_transfers == 0
        assert slow_device.bytes_moved == 0.0
        assert slow_device.busy_time == 0.0

    def test_active_transfers_fail_before_waiting_ones(self, env, slow_device):
        order = []

        def reader(env, name, delay):
            yield env.timeout(delay)
            try:
                yield slow_device.transfer(100.0)
            except HostDied:
                order.append(name)

        def killer(env):
            yield env.timeout(0.7)
            assert slow_device.fail_all(HostDied("host down")) == 2

        env.process(reader(env, "waiting", 0.6), name="late")
        env.process(reader(env, "active", 0.0), name="early")
        env.process(killer(env), name="killer")
        env.run()
        assert order == ["active", "waiting"]

    def test_unwaited_waiting_transfer_does_not_crash_the_engine(
        self, env, slow_device
    ):
        slow_device.transfer(100.0)

        def killer(env):
            yield env.timeout(0.1)
            slow_device.fail_all(HostDied("down"))

        env.process(killer(env), name="killer")
        env.run()  # must not raise HostDied
        assert slow_device.bytes_moved == 0.0

    def test_device_serves_new_transfers_after_failure(self, env, slow_device):
        finished = []

        def story(env):
            doomed = slow_device.transfer(100.0)
            yield env.timeout(0.1)
            slow_device.fail_all(HostDied("down"))
            try:
                yield doomed
            except HostDied:
                pass
            yield slow_device.transfer(50.0)
            finished.append(env.now)

        env.process(story(env), name="story")
        env.run()
        assert finished == [pytest.approx(0.1 + 0.5 + 0.5)]
        assert slow_device.bytes_moved == pytest.approx(50.0)
