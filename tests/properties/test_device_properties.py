"""Property-based tests for the transfer-device model (hypothesis)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment
from repro.storage import MB, TransferDevice, seek_thrash_penalty
from tests.strategies import transfer_plans


def run_plan(plan, bandwidth=100 * MB, alpha=0.0, cap=None):
    env = Environment()
    device = TransferDevice(
        env,
        "d",
        bandwidth=bandwidth,
        penalty=seek_thrash_penalty(alpha),
        default_rate_cap=cap,
    )
    completions = {}

    def issuer(env, index, delay, nbytes):
        yield env.timeout(delay)
        start = env.now
        yield device.transfer(nbytes)
        completions[index] = (start, env.now, nbytes)

    for index, (delay, nbytes) in enumerate(plan):
        env.process(issuer(env, index, delay, nbytes))
    env.run()
    return env, device, completions


class TestConservation:
    @given(transfer_plans())
    @settings(max_examples=60, deadline=None)
    def test_all_bytes_eventually_moved(self, plan):
        _, device, completions = run_plan(plan)
        assert len(completions) == len(plan)
        total = sum(nbytes for _, nbytes in plan)
        assert device.bytes_moved == pytest.approx(total, rel=1e-6)

    @given(transfer_plans(), st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_conservation_holds_under_any_penalty(self, plan, alpha):
        _, device, completions = run_plan(plan, alpha=alpha)
        total = sum(nbytes for _, nbytes in plan)
        assert device.bytes_moved == pytest.approx(total, rel=1e-6)


class TestTimingBounds:
    @given(transfer_plans())
    @settings(max_examples=60, deadline=None)
    def test_no_transfer_beats_dedicated_bandwidth(self, plan):
        """A transfer can never finish faster than having the whole
        device to itself."""
        bandwidth = 100 * MB
        _, _, completions = run_plan(plan, bandwidth=bandwidth)
        for start, end, nbytes in completions.values():
            assert end - start >= nbytes / bandwidth - 1e-6

    @given(transfer_plans(), st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=40, deadline=None)
    def test_makespan_at_least_serial_time_at_full_speed(self, plan, alpha):
        bandwidth = 100 * MB
        env, _, _ = run_plan(plan, bandwidth=bandwidth, alpha=alpha)
        first_start = min(delay for delay, _ in plan)
        total = sum(nbytes for _, nbytes in plan)
        assert env.now >= first_start + total / bandwidth - 1e-6

    @given(transfer_plans())
    @settings(max_examples=40, deadline=None)
    def test_rate_caps_only_slow_things_down(self, plan):
        _, _, uncapped = run_plan(plan)
        _, _, capped = run_plan(plan, cap=10 * MB)
        for index in uncapped:
            assert capped[index][1] >= uncapped[index][1] - 1e-6

    @given(transfer_plans())
    @settings(max_examples=40, deadline=None)
    def test_busy_time_bounded_by_makespan(self, plan):
        env, device, _ = run_plan(plan)
        assert 0 <= device.busy_time <= env.now + 1e-9


class TestPenaltyMonotonicity:
    @given(
        st.floats(min_value=0.0, max_value=3.0),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_aggregate_efficiency_never_exceeds_one(self, alpha, streams):
        penalty = seek_thrash_penalty(alpha)
        assert 0 < penalty(streams) <= 1.0

    @given(st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=30, deadline=None)
    def test_efficiency_decreases_with_concurrency(self, alpha):
        penalty = seek_thrash_penalty(alpha)
        values = [penalty(n) for n in range(1, 20)]
        assert all(a >= b for a, b in zip(values, values[1:]))
