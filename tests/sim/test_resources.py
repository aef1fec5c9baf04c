"""Tests for PriorityStore, the slave's migration queue."""

from repro.sim import Environment, PriorityStore


def _drain(env, store, count, delay=1.0):
    """Take ``count`` items after ``delay``; returns the list they land in."""
    got = []

    def consumer(env):
        yield env.timeout(delay)
        for _ in range(count):
            item = yield store.get()
            got.append(item)

    env.process(consumer(env))
    return got


class TestPriorityStore:
    def test_get_waits_for_a_put(self):
        env = Environment()
        store = PriorityStore(env)
        got = []

        def consumer(env):
            item = yield store.get()
            got.append((item, env.now))

        def producer(env):
            yield env.timeout(4)
            store.put_nowait(0, "widget")

        env.process(consumer(env))
        env.process(producer(env))
        env.run()
        assert got == [("widget", 4.0)]

    def test_releases_smallest_first(self):
        env = Environment()
        store = PriorityStore(env)
        store.put_nowait(3, "low")
        store.put_nowait(1, "high")
        store.put_nowait(2, "mid")
        got = _drain(env, store, 3)
        env.run()
        assert got == ["high", "mid", "low"]

    def test_ties_broken_by_insertion_order(self):
        env = Environment()
        store = PriorityStore(env)
        store.put_nowait(1, "first")
        store.put_nowait(1, "second")
        got = _drain(env, store, 2)
        env.run()
        assert got == ["first", "second"]

    def test_items_are_never_compared(self):
        # Equal priorities fall through to the insertion sequence, so
        # payloads without an ordering queue fine.
        env = Environment()
        store = PriorityStore(env)
        first, second = object(), object()
        store.put_nowait((1, "a"), first)
        store.put_nowait((1, "a"), second)
        got = _drain(env, store, 2)
        env.run()
        assert got[0] is first and got[1] is second

    def test_parked_getter_takes_the_batch_head_whatever_its_priority(self):
        # The handoff the differential model (dst/model.py) assumes: the
        # worker parked on an empty queue gets the batch's FIRST item;
        # the rest leave in (priority, insertion) order.
        env = Environment()
        store = PriorityStore(env)
        got = []

        def worker(env):
            while True:
                item = yield store.get()
                got.append((env.now, item))
                yield env.timeout(1)

        def command(env):
            yield env.timeout(1)
            for priority, item in [(9, "big"), (2, "b1"), (5, "c"), (2, "b2")]:
                store.put_nowait(priority, item)

        env.process(worker(env))
        env.process(command(env))
        env.run(until=10)
        assert got == [(1.0, "big"), (2.0, "b1"), (3.0, "b2"), (4.0, "c")]

    def test_parked_getters_are_served_in_arrival_order(self):
        env = Environment()
        store = PriorityStore(env)
        first, second = store.get(), store.get()
        store.put_nowait(5, "a")
        store.put_nowait(1, "b")
        assert (first.value, second.value) == ("a", "b")
        assert len(store) == 0

    def test_len_counts_queued_items(self):
        env = Environment()
        store = PriorityStore(env)
        assert len(store) == 0
        for priority in range(5):
            store.put_nowait(priority, priority)
        assert len(store) == 5
        store.get()
        assert len(store) == 4

    def test_handed_over_item_is_not_counted(self):
        env = Environment()
        store = PriorityStore(env)
        parked = store.get()
        store.put_nowait(0, "x")
        assert len(store) == 0
        assert parked.value == "x"


class TestClear:
    def test_clear_drops_every_queued_item(self):
        env = Environment()
        store = PriorityStore(env)
        for priority in range(6):
            store.put_nowait(priority, f"item-{priority}")
        store.clear()
        assert len(store) == 0

    def test_cleared_items_are_never_served(self):
        env = Environment()
        store = PriorityStore(env)
        for priority in range(10):
            store.put_nowait(priority, f"old-{priority}")
        store.clear()
        for priority in range(3):
            store.put_nowait(priority, f"new-{priority}")
        got = _drain(env, store, 3)
        env.run()
        assert got == ["new-0", "new-1", "new-2"]
        assert len(store) == 0

    def test_clear_leaves_a_parked_getter_parked(self):
        env = Environment()
        store = PriorityStore(env)
        parked = store.get()
        store.clear()
        assert not parked.triggered
        store.put_nowait(7, "after")
        assert parked.value == "after"
