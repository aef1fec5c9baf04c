"""Tests for Store and PriorityStore."""

import pytest

from repro.sim import Environment, PriorityItem, PriorityStore, Store


class TestStore:
    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer(env, store):
            item = yield store.get()
            got.append((item, env.now))

        def producer(env, store):
            yield env.timeout(4)
            yield store.put("widget")

        env.process(consumer(env, store))
        env.process(producer(env, store))
        env.run()
        assert got == [("widget", 4.0)]

    def test_fifo_order(self):
        env = Environment()
        store = Store(env)
        got = []

        def producer(env, store):
            for item in ["a", "b", "c"]:
                yield store.put(item)

        def consumer(env, store):
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert got == ["a", "b", "c"]

    def test_bounded_put_blocks(self):
        env = Environment()
        store = Store(env, capacity=1)
        log = []

        def producer(env, store):
            yield store.put("first")
            log.append(("put-first", env.now))
            yield store.put("second")
            log.append(("put-second", env.now))

        def consumer(env, store):
            yield env.timeout(5)
            item = yield store.get()
            log.append(("got", item, env.now))

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert ("put-first", 0.0) in log
        assert ("put-second", 5.0) in log

    def test_filtered_get(self):
        env = Environment()
        store = Store(env)
        got = []

        def producer(env, store):
            yield store.put(1)
            yield store.put(2)
            yield store.put(3)

        def consumer(env, store):
            item = yield store.get(filter=lambda x: x % 2 == 0)
            got.append(item)

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert got == [2]
        assert store.items == [1, 3]

    def test_capacity_must_be_positive(self):
        env = Environment()
        with pytest.raises(ValueError):
            Store(env, capacity=0)


class TestPriorityStore:
    def test_releases_smallest_first(self):
        env = Environment()
        store = PriorityStore(env)
        got = []

        def producer(env, store):
            yield store.put(PriorityItem(3, "low"))
            yield store.put(PriorityItem(1, "high"))
            yield store.put(PriorityItem(2, "mid"))

        def consumer(env, store):
            yield env.timeout(1)
            for _ in range(3):
                item = yield store.get()
                got.append(item.item)

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert got == ["high", "mid", "low"]

    def test_ties_broken_by_insertion_order(self):
        env = Environment()
        store = PriorityStore(env)
        got = []

        def producer(env, store):
            yield store.put(PriorityItem(1, "first"))
            yield store.put(PriorityItem(1, "second"))

        def consumer(env, store):
            yield env.timeout(1)
            for _ in range(2):
                item = yield store.get()
                got.append(item.item)

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert got == ["first", "second"]

    def test_remove_by_predicate(self):
        env = Environment()
        store = PriorityStore(env)

        def producer(env, store):
            for priority in range(6):
                yield store.put(PriorityItem(priority, f"item-{priority}"))

        env.process(producer(env, store))
        env.run()
        removed = store.remove(lambda entry: entry.priority % 2 == 0)
        assert sorted(item.item for item in removed) == [
            "item-0",
            "item-2",
            "item-4",
        ]
        assert store._size() == 3

    def test_filtered_get_from_priority_store(self):
        env = Environment()
        store = PriorityStore(env)
        got = []

        def producer(env, store):
            yield store.put(PriorityItem(1, "a"))
            yield store.put(PriorityItem(2, "b"))

        def consumer(env, store):
            yield env.timeout(1)
            item = yield store.get(filter=lambda entry: entry.item == "b")
            got.append(item.item)

        env.process(producer(env, store))
        env.process(consumer(env, store))
        env.run()
        assert got == ["b"]
        assert store._size() == 1


class TestPriorityStoreCompaction:
    """Tombstoned (lazily-cancelled) entries must not grow without bound."""

    def _fill(self, store, count, start=0):
        for priority in range(start, start + count):
            store.put_nowait(PriorityItem(priority, f"item-{priority}"))

    def test_remove_compacts_when_dead_exceeds_half(self):
        env = Environment()
        store = PriorityStore(env)
        self._fill(store, 100)
        removed = store.remove(lambda entry: entry.priority >= 40)
        assert len(removed) == 60
        # 60 dead of 100 is over half: the heap must have been rebuilt.
        assert store._dead == 0
        assert len(store.items) == 40
        assert store._size() == 40

    def test_garbage_stays_bounded_under_churn(self):
        env = Environment()
        store = PriorityStore(env)
        for round_no in range(50):
            self._fill(store, 20, start=round_no * 20)
            store.remove(lambda entry: entry.priority % 2 == 0)
        # Without compaction the heap would hold ~500 tombstones; with it,
        # dead entries never exceed half the heap.
        assert store._dead * 2 <= len(store.items)
        assert store._size() == 500

    def test_removed_items_never_served(self):
        env = Environment()
        store = PriorityStore(env)
        got = []
        self._fill(store, 10)
        store.remove(lambda entry: entry.priority < 5)

        def consumer(env, store):
            for _ in range(5):
                item = yield store.get()
                got.append(item.item)

        env.process(consumer(env, store))
        env.run()
        assert got == [f"item-{p}" for p in range(5, 10)]

    def test_tombstones_do_not_count_against_capacity(self):
        env = Environment()
        store = PriorityStore(env, capacity=3)
        self._fill(store, 3)
        store.remove(lambda entry: entry.priority == 1)
        # One live slot was freed; a put must succeed immediately.
        store.put_nowait(PriorityItem(99, "replacement"))
        assert store._size() == 3
        with pytest.raises(RuntimeError):
            store.put_nowait(PriorityItem(100, "overflow"))

    def test_filtered_get_tombstones_below_top(self):
        env = Environment()
        store = PriorityStore(env)
        got = []
        self._fill(store, 4)

        def consumer(env, store):
            item = yield store.get(filter=lambda e: e.priority == 3)
            got.append(item.item)
            item = yield store.get()
            got.append(item.item)

        env.process(consumer(env, store))
        env.run()
        assert got == ["item-3", "item-0"]
        assert store._size() == 2
