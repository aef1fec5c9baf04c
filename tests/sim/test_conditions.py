"""Tests for AllOf condition events."""

import pytest

from repro.sim import Environment


def test_all_of_waits_for_every_event():
    env = Environment()
    log = []

    def proc(env):
        t1 = env.timeout(2, value="a")
        t2 = env.timeout(5, value="b")
        results = yield env.all_of([t1, t2])
        log.append((env.now, list(results.values())))

    env.process(proc(env))
    env.run()
    assert log == [(5.0, ["a", "b"])]


def test_all_of_empty_triggers_immediately():
    env = Environment()
    log = []

    def proc(env):
        results = yield env.all_of([])
        log.append((env.now, len(results)))

    env.process(proc(env))
    env.run()
    assert log == [(0.0, 0)]


def test_condition_value_mapping_interface():
    env = Environment()
    captured = {}

    def proc(env):
        t1 = env.timeout(1, value="x")
        t2 = env.timeout(2, value="y")
        results = yield env.all_of([t1, t2])
        captured["contains"] = t1 in results
        captured["getitem"] = results[t1]
        captured["dict"] = results.todict()
        captured["len"] = len(results)
        captured["keys"] = list(results.keys())
        captured["items"] = list(results.items())

    env.process(proc(env))
    env.run()
    assert captured["contains"] is True
    assert captured["getitem"] == "x"
    assert captured["len"] == 2
    assert len(captured["dict"]) == 2
    assert len(captured["keys"]) == 2
    assert len(captured["items"]) == 2


def test_condition_value_missing_key_raises():
    env = Environment()

    def proc(env):
        t1 = env.timeout(1)
        t2 = env.timeout(2)
        results = yield env.all_of([t1])
        with pytest.raises(KeyError):
            _ = results[t2]

    env.process(proc(env))
    env.run()


def test_all_of_propagates_child_failure():
    env = Environment()
    seen = []

    def failer(env):
        yield env.timeout(1)
        raise ValueError("child failed")

    def waiter(env, child):
        try:
            yield env.all_of([child, env.timeout(10)])
        except ValueError as err:
            seen.append(str(err))

    child = env.process(failer(env))
    env.process(waiter(env, child))
    env.run()
    assert seen == ["child failed"]


def test_all_of_with_already_processed_events():
    env = Environment()
    log = []

    def proc(env):
        t1 = env.timeout(1, value="first")
        yield t1  # t1 now processed
        results = yield env.all_of([t1, env.timeout(1, value="second")])
        log.append((env.now, list(results.values())))

    env.process(proc(env))
    env.run()
    assert log == [(2.0, ["first", "second"])]


def test_condition_rejects_mixed_environments():
    env1 = Environment()
    env2 = Environment()
    t_foreign = env2.timeout(1)
    with pytest.raises(ValueError):
        env1.all_of([env1.timeout(1), t_foreign])
