"""Corner-case tests for event primitives."""

import pytest

from repro.sim import Environment, SimulationError


class TestEventStates:
    def test_fresh_event_is_untriggered(self):
        env = Environment()
        event = env.event()
        assert not event.triggered
        assert not event.processed
        assert event.ok  # default until failed

    def test_succeed_marks_triggered_then_processed(self):
        env = Environment()
        event = env.event()
        event.succeed("v")
        assert event.triggered
        assert not event.processed
        env.run()
        assert event.processed
        assert event.value == "v"

    def test_unhandled_failed_event_surfaces_in_run(self):
        env = Environment()
        event = env.event()
        event.fail(ValueError("lost"))
        with pytest.raises(ValueError, match="lost"):
            env.run()

    def test_repr_shows_state(self):
        env = Environment()
        event = env.event()
        assert "pending" in repr(event)
        event.succeed()
        assert "triggered" in repr(event)
        env.run()
        assert "processed" in repr(event)


class TestProcessReturnedEventChaining:
    def test_yielding_processed_event_continues_inline(self):
        env = Environment()
        trace = []

        def proc(env):
            event = env.event()
            event.succeed("early")
            yield env.timeout(1)  # let it become processed
            value = yield event  # already processed: resume immediately
            trace.append((value, env.now))

        env.process(proc(env))
        env.run()
        assert trace == [("early", 1.0)]

    def test_two_waiters_on_one_event_both_resume(self):
        env = Environment()
        shared = Environment.event(env)
        resumed = []

        def waiter(env, name):
            value = yield shared
            resumed.append((name, value))

        env.process(waiter(env, "a"))
        env.process(waiter(env, "b"))

        def firer(env):
            yield env.timeout(2)
            shared.succeed("go")

        env.process(firer(env))
        env.run()
        assert sorted(resumed) == [("a", "go"), ("b", "go")]
