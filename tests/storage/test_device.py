"""Tests for the processor-sharing transfer device."""

import pytest

from repro.sim import Environment
from repro.storage import (
    MB,
    TransferDevice,
    no_penalty,
    seek_thrash_penalty,
)


def run_transfer(env, device, nbytes):
    """Helper: run one transfer to completion, return (start, end)."""
    times = {}

    def proc(env):
        times["start"] = env.now
        yield device.transfer(nbytes)
        times["end"] = env.now

    env.process(proc(env))
    env.run()
    return times["start"], times["end"]


class TestSingleTransfer:
    def test_duration_matches_bandwidth(self):
        env = Environment()
        device = TransferDevice(env, "d", bandwidth=100 * MB)
        start, end = run_transfer(env, device, 200 * MB)
        assert end - start == pytest.approx(2.0)

    def test_latency_added_once(self):
        env = Environment()
        device = TransferDevice(env, "d", bandwidth=100 * MB, latency=0.5)
        start, end = run_transfer(env, device, 100 * MB)
        assert end - start == pytest.approx(1.5)

    def test_zero_byte_transfer_completes(self):
        env = Environment()
        device = TransferDevice(env, "d", bandwidth=100 * MB, latency=0.25)
        start, end = run_transfer(env, device, 0)
        assert end - start == pytest.approx(0.25)

    def test_negative_bytes_rejected(self):
        env = Environment()
        device = TransferDevice(env, "d", bandwidth=100 * MB)
        with pytest.raises(ValueError):
            device.transfer(-1)

    def test_invalid_bandwidth_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            TransferDevice(env, "d", bandwidth=0)

    def test_invalid_latency_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            TransferDevice(env, "d", bandwidth=1, latency=-1)


class TestProcessorSharing:
    def test_two_equal_transfers_share_bandwidth(self):
        env = Environment()
        device = TransferDevice(env, "d", bandwidth=100 * MB)
        ends = []

        def proc(env):
            yield device.transfer(100 * MB)
            ends.append(env.now)

        env.process(proc(env))
        env.process(proc(env))
        env.run()
        # Two 1-second transfers sharing fairly finish together at t=2.
        assert ends == [pytest.approx(2.0), pytest.approx(2.0)]

    def test_short_transfer_finishes_first_then_long_speeds_up(self):
        env = Environment()
        device = TransferDevice(env, "d", bandwidth=100 * MB)
        ends = {}

        def proc(env, name, nbytes):
            yield device.transfer(nbytes)
            ends[name] = env.now

        env.process(proc(env, "short", 50 * MB))
        env.process(proc(env, "long", 150 * MB))
        env.run()
        # Shared until short has its 50MB at t=1 (25MB/s... no: 50MB/s each).
        # each gets 50MB/s: short done at t=1 with long at 50MB moved;
        # long then gets 100MB/s for remaining 100MB -> done t=2.
        assert ends["short"] == pytest.approx(1.0)
        assert ends["long"] == pytest.approx(2.0)

    def test_late_arrival_slows_existing_transfer(self):
        env = Environment()
        device = TransferDevice(env, "d", bandwidth=100 * MB)
        ends = {}

        def first(env):
            yield device.transfer(100 * MB)
            ends["first"] = env.now

        def second(env):
            yield env.timeout(0.5)
            yield device.transfer(100 * MB)
            ends["second"] = env.now

        env.process(first(env))
        env.process(second(env))
        env.run()
        # First does 50MB alone in 0.5s; then both share: each at 50MB/s.
        # First's remaining 50MB takes 1s -> t=1.5.
        assert ends["first"] == pytest.approx(1.5)
        # Second then alone: had 50MB in the shared 1s, 50MB left at
        # 100MB/s -> t=2.0.
        assert ends["second"] == pytest.approx(2.0)

    def test_conservation_of_bytes(self):
        env = Environment()
        device = TransferDevice(env, "d", bandwidth=100 * MB)
        total = 0.0

        def proc(env, nbytes, delay):
            yield env.timeout(delay)
            yield device.transfer(nbytes)

        for index in range(10):
            nbytes = (index + 1) * 10 * MB
            total += nbytes
            env.process(proc(env, nbytes, delay=index * 0.3))
        env.run()
        assert device.bytes_moved == pytest.approx(total, rel=1e-6)


class TestConcurrencyPenalty:
    def test_no_penalty_keeps_aggregate_constant(self):
        penalty = no_penalty
        assert penalty(1) == 1.0
        assert penalty(100) == 1.0

    def test_seek_thrash_formula(self):
        penalty = seek_thrash_penalty(0.5)
        assert penalty(1) == 1.0
        assert penalty(2) == pytest.approx(1 / 1.5)
        assert penalty(3) == pytest.approx(1 / 2.0)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            seek_thrash_penalty(-0.1)

    def test_concurrent_hdd_transfers_are_collectively_slower(self):
        """Two concurrent reads take longer than the same reads in series."""

        def total_time(concurrent):
            env = Environment()
            device = TransferDevice(
                env,
                "hdd",
                bandwidth=100 * MB,
                penalty=seek_thrash_penalty(1.0),
            )

            def reader(env, delay):
                yield env.timeout(delay)
                yield device.transfer(100 * MB)

            if concurrent:
                env.process(reader(env, 0))
                env.process(reader(env, 0))
            else:

                def serial(env):
                    yield device.transfer(100 * MB)
                    yield device.transfer(100 * MB)

                env.process(serial(env))
            env.run()
            return env.now

        assert total_time(concurrent=True) > total_time(concurrent=False)

    def test_single_stream_unaffected_by_penalty(self):
        env = Environment()
        device = TransferDevice(
            env, "hdd", bandwidth=100 * MB, penalty=seek_thrash_penalty(2.0)
        )
        start, end = run_transfer(env, device, 100 * MB)
        assert end - start == pytest.approx(1.0)


class TestInstrumentation:
    def test_busy_time_only_counts_active_periods(self):
        env = Environment()
        device = TransferDevice(env, "d", bandwidth=100 * MB)

        def proc(env):
            yield device.transfer(100 * MB)  # 1s busy
            yield env.timeout(5)  # idle
            yield device.transfer(100 * MB)  # 1s busy

        env.process(proc(env))
        env.run()
        assert device.busy_time == pytest.approx(2.0)

    def test_current_rate_and_aggregate_rate(self):
        env = Environment()
        device = TransferDevice(
            env, "d", bandwidth=100 * MB, penalty=seek_thrash_penalty(1.0)
        )
        observed = {}

        def reader(env):
            streams = [device.transfer(1000 * MB), device.transfer(1000 * MB)]
            yield env.timeout(0.1)
            observed["rates"] = [record.rate for record in streams]

        env.process(reader(env))
        env.run(until=0.2)
        # n=2, penalty 1/2 -> aggregate 50MB/s, 25MB/s per stream.
        assert sum(observed["rates"]) == pytest.approx(50 * MB)
        assert observed["rates"] == [pytest.approx(25 * MB)] * 2


class TestInPlaceCompletion:
    def test_finished_transfer_runs_ahead_of_same_instant_timeout(self):
        # The wakeup fires the transfer in place, so its callbacks run
        # inside the wakeup's dispatch, before a timeout queued later
        # for the same instant (queued behind it, it would run last).
        env = Environment()
        device = TransferDevice(env, "d", bandwidth=100 * MB)
        order = []
        done = device.transfer(100 * MB)
        done.callbacks.append(lambda _ev: order.append(("transfer", env.now)))
        env.timeout_at(1.0).callbacks.append(
            lambda _ev: order.append(("timeout", env.now))
        )
        env.run()
        assert order == [("transfer", 1.0), ("timeout", 1.0)]

    def test_run_until_one_of_two_finishers_keeps_the_other(self):
        # Both streams finish at one wakeup; stopping at the first must
        # not lose the second.
        env = Environment()
        device = TransferDevice(env, "d", bandwidth=100 * MB)
        first = device.transfer(100 * MB)
        second = device.transfer(100 * MB)
        env.run(until=first)
        assert env.now == pytest.approx(2.0)
        env.run()
        assert second.processed and second.ok

    def test_one_event_per_transfer_on_an_idle_device(self):
        env = Environment()
        device = TransferDevice(env, "d", bandwidth=100 * MB)
        device.transfer(100 * MB)
        env.run()
        assert env.events_scheduled == 1

    def test_bandwidth_change_on_idle_device_changes_next_transfer(self):
        env = Environment()
        device = TransferDevice(
            env, "d", bandwidth=100 * MB, penalty=seek_thrash_penalty(0.5)
        )
        device.set_bandwidth(50 * MB)
        start, end = run_transfer(env, device, 100 * MB)
        assert end - start == pytest.approx(2.0)
        device.set_bandwidth(200 * MB)
        start, end = run_transfer(env, device, 100 * MB)
        assert end - start == pytest.approx(0.5)
        device.bandwidth = 25 * MB
        start, end = run_transfer(env, device, 100 * MB)
        assert end - start == pytest.approx(4.0)
