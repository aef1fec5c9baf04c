"""Tests for the simulation engine and event loop."""

import pytest

from repro.sim import Environment, Event, SimulationError


def test_initial_time_defaults_to_zero():
    env = Environment()
    assert env.now == 0.0


def test_initial_time_can_be_set():
    env = Environment(initial_time=42.5)
    assert env.now == 42.5


def test_run_empty_schedule_returns_none():
    env = Environment()
    assert env.run() is None


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(5)

    env.process(proc(env))
    env.run()
    assert env.now == 5


def test_run_until_number_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(1)

    env.process(proc(env))
    env.run(until=10)
    assert env.now == 10


def test_run_until_past_time_raises():
    env = Environment(initial_time=100)
    with pytest.raises(ValueError):
        env.run(until=50)


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3)
        return "done"

    process = env.process(proc(env))
    assert env.run(until=process) == "done"
    assert env.now == 3


def test_run_until_never_triggered_event_raises():
    env = Environment()
    orphan = env.event()
    with pytest.raises(SimulationError):
        env.run(until=orphan)


def test_run_until_already_processed_event_returns_immediately():
    env = Environment()
    event = env.event()
    event.succeed("early")
    env.run()
    assert env.run(until=event) == "early"


def test_simultaneous_events_fire_in_creation_order():
    env = Environment()
    order = []

    def proc(env, label):
        yield env.timeout(1)
        order.append(label)

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.process(proc(env, "c"))
    env.run()
    assert order == ["a", "b", "c"]


def test_peek_reports_next_event_time():
    env = Environment()

    def proc(env):
        yield env.timeout(7)

    env.process(proc(env))
    # The Initialize event is scheduled at t=0.
    assert env.peek() == 0.0
    env.step()
    assert env.peek() == 7.0


def test_peek_empty_is_infinite():
    env = Environment()
    assert env.peek() == float("inf")


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_unhandled_process_exception_propagates_from_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("boom")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_waited_on_process_exception_delivered_to_waiter():
    env = Environment()
    seen = []

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("boom")

    def waiter(env, child):
        try:
            yield child
        except RuntimeError as err:
            seen.append(str(err))

    child = env.process(bad(env))
    env.process(waiter(env, child))
    env.run()
    assert seen == ["boom"]


def test_processes_can_wait_on_each_other():
    env = Environment()
    log = []

    def child(env):
        yield env.timeout(2)
        log.append(("child-done", env.now))
        return 99

    def parent(env):
        value = yield env.process(child(env))
        log.append(("parent-got", value, env.now))

    env.process(parent(env))
    env.run()
    assert log == [("child-done", 2.0), ("parent-got", 99, 2.0)]


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_event_double_trigger_raises():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)
    with pytest.raises(SimulationError):
        event.fail(RuntimeError())


def test_event_fail_requires_exception():
    env = Environment()
    event = env.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")


def test_yield_none_resumes_same_timestep():
    env = Environment()
    log = []

    def proc(env):
        log.append(env.now)
        yield None
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [0.0, 0.0]


def test_yielding_non_event_is_an_error():
    env = Environment()

    def proc(env):
        yield 42

    env.process(proc(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_timeout_carries_value():
    env = Environment()
    got = []

    def proc(env):
        value = yield env.timeout(1, value="payload")
        got.append(value)

    env.process(proc(env))
    env.run()
    assert got == ["payload"]


def test_clock_never_goes_backwards():
    env = Environment()
    times = []

    def proc(env, delay):
        yield env.timeout(delay)
        times.append(env.now)

    for delay in [5, 1, 3, 2, 4]:
        env.process(proc(env, delay))
    env.run()
    assert times == sorted(times)


def test_fire_runs_callbacks_in_place_at_now():
    env = Environment()
    event = env.event()
    log = []

    def trigger(_wakeup):
        scheduled = env.events_scheduled
        event.callbacks.append(lambda ev: log.append(("cb", env.now, ev.value)))
        env.fire(event, "v")
        log.append(("after-fire", env.events_scheduled - scheduled, env.peek()))

    env.timeout(1.5).callbacks.append(trigger)
    env.run()
    assert log == [("cb", 1.5, "v"), ("after-fire", 0, float("inf"))]
    assert event.triggered and event.processed and event.ok


def test_process_yielding_fired_event_resumes_at_once():
    env = Environment()
    event = env.event()
    env.timeout(2.0).callbacks.append(lambda _t: env.fire(event, 42))
    log = []

    def waiter(env):
        yield env.timeout(3.0)
        value = yield event
        log.append((env.now, value))

    env.process(waiter(env))
    env.run()
    assert log == [(3.0, 42)]


def test_fire_rejects_a_triggered_event():
    env = Environment()
    fired = env.event()
    env.fire(fired)
    with pytest.raises(SimulationError):
        env.fire(fired)
    with pytest.raises(SimulationError):
        fired.succeed()
    queued = env.event().succeed()
    with pytest.raises(SimulationError):
        env.fire(queued)


def test_monitor_sees_a_fired_event_once():
    env = Environment()
    seen = []
    env.monitor = lambda when, ev, callbacks: seen.append((when, ev, len(callbacks)))
    event = env.event()
    event.callbacks.append(lambda ev: None)
    wakeup = env.timeout(1.0)
    wakeup.callbacks.append(lambda _t: env.fire(event))
    env.run()
    assert seen == [(1.0, wakeup, 1), (1.0, event, 1)]
