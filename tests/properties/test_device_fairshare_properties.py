"""Property tests: device fair-share rates vs a naive reference.

``TransferDevice._recompute_rates`` grants every stream its share of the
aggregate budget, clipped by the device's per-stream cap
(``default_rate_cap``), and special-cases a lone stream.  Both claim to
reproduce the reference water-fill below *bit for bit* (same grant
order, same float operations), at any stream count and under any cap.
These properties pin that claim with hypothesis-generated caps and
staggered transfer plans.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment
from repro.storage import MB, TransferDevice, seek_thrash_penalty

BANDWIDTH = 100 * MB


def naive_rates(streams, cap, bandwidth, alpha):
    """The reference water-fill: grants shares in stream order from a
    running budget, each clipped by ``cap``, with no special cases."""
    budget = bandwidth * seek_thrash_penalty(alpha)(streams)
    rates = []
    remaining = streams
    for _ in range(streams):
        fair = budget / remaining
        rate = fair if cap is None else min(cap, fair)
        rates.append(rate)
        budget -= rate
        remaining -= 1
    return rates


class NaiveDevice(TransferDevice):
    """A :class:`TransferDevice` with every reshare on the general fill
    (no lone-stream shortcut)."""

    def _recompute_rates(self):
        active = self._active
        budget = self.bandwidth * self.penalty(len(active))
        count = len(active)
        cap = self.default_rate_cap
        for record in active:
            fair = budget / count
            rate = fair if cap is None else min(cap, fair)
            record.rate = rate
            budget -= rate
            count -= 1


def device_rates(streams, cap, alpha):
    """Rates the real device assigns to ``streams`` admitted at once."""
    env = Environment()
    device = TransferDevice(
        env,
        "d",
        bandwidth=BANDWIDTH,
        penalty=seek_thrash_penalty(alpha),
        default_rate_cap=cap,
    )
    for _ in range(streams):
        device.transfer(1024 * MB)
    return [record.rate for record in device._active]


# A cap either binds hard (below any fair share), sits mid-range, or is
# absent; mixing all three exercises every branch of the water-fill.
cap_values = st.one_of(
    st.none(),
    st.floats(min_value=0.1 * MB, max_value=200 * MB),
)
alphas = st.floats(min_value=0.0, max_value=2.0)


class TestFastPathsMatchReference:
    """The lone-stream shortcut and the general fill must be
    bit-identical to the reference."""

    @given(cap_values, alphas)
    @settings(max_examples=60, deadline=None)
    def test_lone_stream(self, cap, alpha):
        assert device_rates(1, cap, alpha) == naive_rates(
            1, cap, BANDWIDTH, alpha
        )

    @given(st.integers(min_value=2, max_value=40), alphas)
    @settings(max_examples=60, deadline=None)
    def test_all_uncapped(self, streams, alpha):
        assert device_rates(streams, None, alpha) == naive_rates(
            streams, None, BANDWIDTH, alpha
        )

    @given(st.integers(min_value=1, max_value=30), cap_values, alphas)
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_layouts(self, streams, cap, alpha):
        assert device_rates(streams, cap, alpha) == naive_rates(
            streams, cap, BANDWIDTH, alpha
        )

    @given(st.integers(min_value=1, max_value=30), cap_values, alphas)
    @settings(max_examples=60, deadline=None)
    def test_rates_respect_caps_and_budget(self, streams, cap, alpha):
        rates = device_rates(streams, cap, alpha)
        budget = BANDWIDTH * seek_thrash_penalty(alpha)(streams)
        for rate in rates:
            assert rate >= 0.0
            if cap is not None:
                assert rate <= cap
        assert sum(rates) <= budget * (1 + 1e-12)


# Staggered plans: (delay, megabytes) per stream.  Delays overlap
# transfers so the devices reshare, settle, and reschedule many times.
transfer_plans = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.1, max_value=64.0),
    ),
    min_size=1,
    max_size=16,
)


def run_plan(device_class, plan, alpha, cap):
    """Replay ``plan`` on a fresh device; returns completion times."""
    env = Environment()
    device = device_class(
        env,
        "d",
        bandwidth=BANDWIDTH,
        penalty=seek_thrash_penalty(alpha),
        default_rate_cap=cap,
    )
    completions = {}

    def issuer(env, index, delay, megabytes):
        yield env.timeout(delay)
        yield device.transfer(megabytes * MB)
        completions[index] = env.now

    for index, (delay, megabytes) in enumerate(plan):
        env.process(issuer(env, index, delay, megabytes))
    env.run()
    return completions, device.bytes_moved


class TestIncrementalSettleMatchesReference:
    """Full trajectories — reshare points, settle accounting, completion
    times — must be bit-identical with the fast paths on and off."""

    @given(transfer_plans, alphas, cap_values)
    @settings(max_examples=60, deadline=None)
    def test_completion_times_bit_identical(self, plan, alpha, cap):
        fast, fast_moved = run_plan(TransferDevice, plan, alpha, cap)
        naive, naive_moved = run_plan(NaiveDevice, plan, alpha, cap)
        assert fast == naive
        assert fast_moved == naive_moved


class TestWideStreams:
    """Far more concurrent streams than any shipped run puts on one
    device: the same scalar water-fill, still bit-identical to the
    reference and still deterministic.  The 2 MB/s cap binds once the
    crowd thins out, so both regimes are covered."""

    CAP = 2 * MB

    def _wide_plan(self, streams):
        return [(0.001 * index, 8.0 + (index % 7)) for index in range(streams)]

    @pytest.mark.parametrize("streams", [80, 100, 200])
    def test_wide_replay_is_deterministic(self, streams):
        plan = self._wide_plan(streams)
        first, first_moved = run_plan(TransferDevice, plan, 0.1, self.CAP)
        second, second_moved = run_plan(TransferDevice, plan, 0.1, self.CAP)
        assert first == second
        assert first_moved == second_moved

    @pytest.mark.parametrize("streams", [80, 100, 200])
    def test_wide_streams_match_reference(self, streams):
        plan = self._wide_plan(streams)
        fast, fast_moved = run_plan(TransferDevice, plan, 0.1, self.CAP)
        naive, naive_moved = run_plan(NaiveDevice, plan, 0.1, self.CAP)
        assert fast == naive
        assert fast_moved == naive_moved
