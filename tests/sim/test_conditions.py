"""Tests for the kernel's all-of join (``join_all``) as processes use it."""

from repro.sim import Environment, join_all


def test_all_of_waits_for_every_event():
    env = Environment()
    log = []

    def proc(env):
        t1 = env.timeout(2, value="a")
        t2 = env.timeout(5, value="b")
        result = yield join_all(env, [t1, t2])
        log.append((env.now, result, t1.value, t2.value))

    env.process(proc(env))
    env.run()
    assert log == [(5.0, None, "a", "b")]


def test_all_of_empty_triggers_immediately():
    env = Environment()
    log = []

    def proc(env):
        result = yield join_all(env, [])
        log.append((env.now, result))

    env.process(proc(env))
    env.run()
    assert log == [(0.0, None)]


def test_all_of_propagates_child_failure():
    env = Environment()
    seen = []

    def failer(env):
        yield env.timeout(1)
        raise ValueError("child failed")

    def waiter(env, child):
        try:
            yield join_all(env, [child, env.timeout(10)])
        except ValueError as err:
            seen.append((env.now, str(err)))

    child = env.process(failer(env))
    env.process(waiter(env, child))
    env.run()
    assert seen == [(1.0, "child failed")]


def test_all_of_with_already_processed_events():
    env = Environment()
    log = []

    def proc(env):
        t1 = env.timeout(1, value="first")
        yield t1  # t1 now processed
        t2 = env.timeout(1, value="second")
        yield join_all(env, [t1, t2])
        log.append((env.now, t1.value, t2.value))

    env.process(proc(env))
    env.run()
    assert log == [(2.0, "first", "second")]
