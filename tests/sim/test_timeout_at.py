"""Tests for absolute-time timeouts and the chained arrival driver."""

import pytest

from repro.sim import Environment
from repro.sim.events import chain_arrivals

#: A clock reading and a later trace time for which ``now + (when - now)``
#: rounds to the float just below ``when``.
NOW = 0.0938595867742349
WHEN = 2.834747652200631


def _fired_at(env, event):
    seen = []
    event.callbacks.append(lambda _event: seen.append(env.now))
    env.run()
    return seen


class TestTimeoutAt:
    def test_relative_delay_misses_the_exact_time(self):
        # The counterexample the absolute form exists for.
        assert NOW + (WHEN - NOW) != WHEN
        env = Environment(initial_time=NOW)
        assert _fired_at(env, env.timeout(WHEN - NOW)) == [NOW + (WHEN - NOW)]

    def test_fires_at_exactly_when(self):
        env = Environment(initial_time=NOW)
        assert _fired_at(env, env.timeout_at(WHEN)) == [WHEN]

    def test_delivers_its_value(self):
        env = Environment()
        event = env.timeout_at(3.0, value="payload")
        got = []
        event.callbacks.append(lambda fired: got.append(fired.value))
        env.run()
        assert got == ["payload"]
        assert event.delay == 3.0

    def test_now_is_allowed(self):
        env = Environment(initial_time=5.0)
        assert _fired_at(env, env.timeout_at(5.0)) == [5.0]

    def test_past_time_rejected(self):
        env = Environment(initial_time=5.0)
        with pytest.raises(ValueError):
            env.timeout_at(4.999)
        assert env.peek() == float("inf")

    def test_same_instant_order_follows_creation(self):
        # timeout, timeout_at and pooled_timeout entries landing on one
        # instant dispatch in the order their event ids were drawn.
        env = Environment()
        order = []

        def record(label):
            return lambda _event: order.append(label)

        env.timeout_at(2.0).callbacks.append(record("at-1"))
        env.timeout(2.0).callbacks.append(record("rel-2"))
        env.pooled_timeout(2.0).callbacks.append(record("pooled-3"))
        env.timeout(2.0).callbacks.append(record("rel-4"))
        env.timeout_at(2.0).callbacks.append(record("at-5"))
        env.timeout_at(1.0).callbacks.append(record("early"))
        env.run()
        assert order == ["early", "at-1", "rel-2", "pooled-3", "rel-4", "at-5"]


class TestChainArrivals:
    def test_each_item_arrives_at_its_exact_time(self):
        env = Environment(initial_time=NOW)
        seen = []
        chain_arrivals(
            env,
            [(WHEN, "a"), (WHEN, "b"), (7.25, "c")],
            lambda item: seen.append((env.now, item)),
        )
        env.run()
        assert seen == [(WHEN, "a"), (WHEN, "b"), (7.25, "c")]

    def test_only_the_next_arrival_is_queued(self):
        env = Environment()
        depths = []
        chain_arrivals(
            env,
            ((float(t), t) for t in range(1, 101)),
            lambda _item: depths.append(len(env._queue)),
        )
        assert len(env._queue) == 1
        env.run()
        # The successor is queued before on_arrival runs; the last
        # arrival has none.
        assert depths == [1] * 99 + [0]

    def test_successor_precedes_what_the_arrival_schedules(self):
        env = Environment()
        order = []

        def on_arrival(item):
            order.append(item)
            if item == "first":
                # Lands on the next arrival's instant, but was scheduled
                # after that arrival was queued.
                env.timeout(1.0).callbacks.append(
                    lambda _event: order.append("scheduled")
                )

        chain_arrivals(env, [(1.0, "first"), (2.0, "second")], on_arrival)
        env.run()
        assert order == ["first", "second", "scheduled"]

    def test_decreasing_time_raises(self):
        env = Environment()
        chain_arrivals(env, [(2.0, "a"), (1.0, "b")], lambda _item: None)
        with pytest.raises(ValueError):
            env.run()

    def test_empty_stream_schedules_nothing(self):
        env = Environment()
        chain_arrivals(env, [], lambda _item: None)
        assert env.peek() == float("inf")
