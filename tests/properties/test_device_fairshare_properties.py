"""Property tests: device fair-share fast paths vs a naive reference.

``TransferDevice._recompute_rates`` special-cases the layouts that
dominate real runs — a lone stream, an all-uncapped set, exactly one
capped stream, and an already-ascending cap sequence — to skip the full
stable sort.  Each fast path claims to reproduce the sort-everything
water-fill *bit for bit* (same grant order, same float operations), at
any stream count.  These properties pin that claim with
hypothesis-generated cap layouts and staggered transfer plans.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment
from repro.storage import MB, TransferDevice, seek_thrash_penalty

BANDWIDTH = 100 * MB


def naive_rates(caps, bandwidth, alpha):
    """Sort-everything water-fill: the reference the fast paths must match.

    Stable-sorts every stream by cap (uncapped last) and grants shares in
    that order with a running budget — the pre-fast-path algorithm,
    with no layout special cases.
    """
    count = len(caps)
    budget = bandwidth * seek_thrash_penalty(alpha)(count)
    inf = float("inf")
    order = sorted(
        range(count), key=lambda i: inf if caps[i] is None else caps[i]
    )
    rates = [0.0] * count
    remaining = count
    for index in order:
        fair = budget / remaining
        cap = caps[index]
        rate = fair if cap is None else min(cap, fair)
        rates[index] = rate
        budget -= rate
        remaining -= 1
    return rates


class NaiveDevice(TransferDevice):
    """A :class:`TransferDevice` with every reshare doing the full sort."""

    def _recompute_rates(self):
        active = self._active
        inf = float("inf")
        pending = sorted(
            active,
            key=lambda t: inf if t.rate_cap is None else t.rate_cap,
        )
        budget = self.bandwidth * self.penalty(len(active))
        count = len(active)
        for record in pending:
            fair = budget / count
            cap = record.rate_cap
            rate = fair if cap is None else min(cap, fair)
            record.rate = rate
            budget -= rate
            count -= 1
        return pending


def device_rates(caps, alpha):
    """Rates the real device assigns to streams admitted in ``caps`` order."""
    env = Environment()
    device = TransferDevice(
        env, "d", bandwidth=BANDWIDTH, penalty=seek_thrash_penalty(alpha)
    )
    for cap in caps:
        device.transfer(1024 * MB, rate_cap=cap)
    return [record.rate for record in device._active]


# A cap either binds hard (below any fair share), sits mid-range, or is
# absent; mixing all three exercises every branch of the water-fill.
cap_values = st.one_of(
    st.none(),
    st.floats(min_value=0.1 * MB, max_value=200 * MB),
)
alphas = st.floats(min_value=0.0, max_value=2.0)


class TestFastPathsMatchReference:
    """Each scalar fast path must be bit-identical to the naive sort."""

    @given(cap_values, alphas)
    @settings(max_examples=60, deadline=None)
    def test_lone_stream(self, cap, alpha):
        assert device_rates([cap], alpha) == naive_rates(
            [cap], BANDWIDTH, alpha
        )

    @given(st.integers(min_value=2, max_value=40), alphas)
    @settings(max_examples=60, deadline=None)
    def test_all_uncapped(self, streams, alpha):
        caps = [None] * streams
        assert device_rates(caps, alpha) == naive_rates(
            caps, BANDWIDTH, alpha
        )

    @given(
        st.integers(min_value=2, max_value=30),
        st.integers(min_value=0, max_value=29),
        st.floats(min_value=0.1 * MB, max_value=200 * MB),
        alphas,
    )
    @settings(max_examples=80, deadline=None)
    def test_one_capped_any_position(self, streams, position, cap, alpha):
        caps = [None] * streams
        caps[position % streams] = cap
        assert device_rates(caps, alpha) == naive_rates(
            caps, BANDWIDTH, alpha
        )

    @given(
        st.lists(
            st.floats(min_value=0.1 * MB, max_value=200 * MB),
            min_size=2,
            max_size=30,
        ),
        alphas,
    )
    @settings(max_examples=60, deadline=None)
    def test_ascending_caps_skip_the_sort(self, raw_caps, alpha):
        caps = sorted(raw_caps)
        assert device_rates(caps, alpha) == naive_rates(
            caps, BANDWIDTH, alpha
        )

    @given(st.lists(cap_values, min_size=1, max_size=30), alphas)
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_layouts(self, caps, alpha):
        assert device_rates(caps, alpha) == naive_rates(
            caps, BANDWIDTH, alpha
        )

    @given(st.lists(cap_values, min_size=1, max_size=30), alphas)
    @settings(max_examples=60, deadline=None)
    def test_rates_respect_caps_and_budget(self, caps, alpha):
        rates = device_rates(caps, alpha)
        budget = BANDWIDTH * seek_thrash_penalty(alpha)(len(caps))
        for rate, cap in zip(rates, caps):
            assert rate >= 0.0
            if cap is not None:
                assert rate <= cap
        assert sum(rates) <= budget * (1 + 1e-12)


# Staggered plans: (delay, megabytes, cap) per stream.  Delays overlap
# transfers so the devices reshare, settle, and reschedule many times.
transfer_plans = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.1, max_value=64.0),
        cap_values,
    ),
    min_size=1,
    max_size=16,
)


def run_plan(device_class, plan, alpha):
    """Replay ``plan`` on a fresh device; returns completion times."""
    env = Environment()
    device = device_class(
        env, "d", bandwidth=BANDWIDTH, penalty=seek_thrash_penalty(alpha)
    )
    completions = {}

    def issuer(env, index, delay, megabytes, cap):
        yield env.timeout(delay)
        yield device.transfer(megabytes * MB, rate_cap=cap)
        completions[index] = env.now

    for index, (delay, megabytes, cap) in enumerate(plan):
        env.process(issuer(env, index, delay, megabytes, cap))
    env.run()
    return completions, device.bytes_moved


class TestIncrementalSettleMatchesReference:
    """Full trajectories — reshare points, settle accounting, completion
    times — must be bit-identical with the fast paths on and off."""

    @given(transfer_plans, alphas)
    @settings(max_examples=60, deadline=None)
    def test_completion_times_bit_identical(self, plan, alpha):
        fast, fast_moved = run_plan(TransferDevice, plan, alpha)
        naive, naive_moved = run_plan(NaiveDevice, plan, alpha)
        assert fast == naive
        assert fast_moved == naive_moved


class TestWideStreams:
    """Far more concurrent streams than any shipped run puts on one
    device: the same scalar water-fill, still bit-identical to the
    reference and still deterministic."""

    def _wide_plan(self, streams, capped_every):
        plan = []
        for index in range(streams):
            cap = 2 * MB if index % capped_every == 0 else None
            plan.append((0.001 * index, 8.0 + (index % 7), cap))
        return plan

    @pytest.mark.parametrize("streams", [80, 100, 200])
    def test_wide_replay_is_deterministic(self, streams):
        plan = self._wide_plan(streams, capped_every=5)
        first, first_moved = run_plan(TransferDevice, plan, alpha=0.1)
        second, second_moved = run_plan(TransferDevice, plan, alpha=0.1)
        assert first == second
        assert first_moved == second_moved

    @pytest.mark.parametrize("streams", [80, 100, 200])
    def test_wide_streams_match_reference(self, streams):
        plan = self._wide_plan(streams, capped_every=5)
        fast, fast_moved = run_plan(TransferDevice, plan, alpha=0.1)
        naive, naive_moved = run_plan(NaiveDevice, plan, alpha=0.1)
        assert fast == naive
        assert fast_moved == naive_moved
