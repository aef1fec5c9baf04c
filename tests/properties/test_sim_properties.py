"""Property-based tests for simulation-kernel invariants (hypothesis)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment, PriorityStore
from repro.dfs.blocks import split_into_blocks
from repro.storage import MB


class TestClockMonotonicity:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_events_observe_nondecreasing_time(self, delays):
        env = Environment()
        observed = []

        def proc(env, delay):
            yield env.timeout(delay)
            observed.append(env.now)

        for delay in delays:
            env.process(proc(env, delay))
        env.run()
        assert observed == sorted(observed)
        assert len(observed) == len(delays)
        assert env.now == pytest.approx(max(delays))

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=10.0),
                st.floats(min_value=0.0, max_value=10.0),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_nested_waits_preserve_causality(self, pairs):
        env = Environment()
        log = []

        def child(env, duration, index):
            yield env.timeout(duration)
            return index

        def parent(env, start_delay, duration, index):
            yield env.timeout(start_delay)
            spawn_time = env.now
            value = yield env.process(child(env, duration, index))
            assert value == index
            log.append((spawn_time, env.now))

        for index, (start, duration) in enumerate(pairs):
            env.process(parent(env, start, duration, index))
        env.run()
        assert len(log) == len(pairs)
        for spawn_time, finish_time in log:
            assert finish_time >= spawn_time


def _drain_after_puts(priorities):
    """Put ``(priority, index)`` for every priority, then drain."""
    env = Environment()
    store = PriorityStore(env)
    for index, priority in enumerate(priorities):
        store.put_nowait(priority, (priority, index))
    drained = []

    def consumer(env):
        yield env.timeout(1)
        for _ in priorities:
            item = yield store.get()
            drained.append(item)

    env.process(consumer(env))
    env.run()
    return drained


class TestPriorityStoreOrdering:
    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=50))
    @settings(max_examples=80, deadline=None)
    def test_items_leave_in_priority_order(self, priorities):
        drained = _drain_after_puts(priorities)
        assert [priority for priority, _ in drained] == sorted(priorities)

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_equal_priorities_preserve_fifo(self, priorities):
        drained = _drain_after_puts(priorities)
        for (pa, ia), (pb, ib) in zip(drained, drained[1:]):
            if pa == pb:
                assert ia < ib

    @given(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_parked_getter_takes_the_first_put(self, priorities):
        env = Environment()
        store = PriorityStore(env)
        parked = store.get()
        for index, priority in enumerate(priorities):
            store.put_nowait(priority, (priority, index))
        rest = []
        while len(store):
            rest.append(store.get().value)
        assert parked.value == (priorities[0], 0)
        assert rest == sorted(
            (priority, index)
            for index, priority in enumerate(priorities)
            if index > 0
        )


class TestBlockSplitting:
    # Keep nbytes/block_size bounded so splits stay at sane block counts.
    @given(
        st.floats(min_value=0.0, max_value=1e10),
        st.floats(min_value=1e6, max_value=1e9),
    )
    @settings(max_examples=100, deadline=None)
    def test_blocks_conserve_bytes(self, nbytes, block_size):
        blocks = split_into_blocks("/f", nbytes, block_size)
        assert sum(b.nbytes for b in blocks) == pytest.approx(nbytes, rel=1e-9)

    @given(
        st.floats(min_value=1.0, max_value=1e10),
        st.floats(min_value=1e6, max_value=1e9),
    )
    @settings(max_examples=100, deadline=None)
    def test_all_blocks_within_block_size(self, nbytes, block_size):
        blocks = split_into_blocks("/f", nbytes, block_size)
        for block in blocks:
            assert 0 < block.nbytes <= block_size + 1e-9

    @given(
        st.floats(min_value=0.0, max_value=1e10),
        st.floats(min_value=1e6, max_value=1e9),
    )
    @settings(max_examples=100, deadline=None)
    def test_indices_dense_and_ids_unique(self, nbytes, block_size):
        blocks = split_into_blocks("/f", nbytes, block_size)
        assert [b.index for b in blocks] == list(range(len(blocks)))
        assert len({b.block_id for b in blocks}) == len(blocks)
