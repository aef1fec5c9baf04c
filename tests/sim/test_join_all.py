"""Tests for ``join_all``, the kernel's one join.

``join_all`` fires at the same instant *and* at the same position in the
dispatch order as a general all-of condition would (the reference
:class:`AllOf` below, which checks every child from its callback), and
it fails the way that condition fails.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Event, join_all


class AllOf(Event):
    """Reference all-of condition: a check armed on every child that
    counts them and succeeds with their values once all have fired."""

    def __init__(self, env, events):
        super().__init__(env)
        self._events = list(events)
        self._count = 0
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event):
        if self.triggered:
            return
        self._count += 1
        if not event.ok:
            self.fail(event.value)
        elif self._count == len(self._events):
            self.succeed({child: child.value for child in self._events})


class Boom(Exception):
    pass


def dispatch_log(make_join, delays, failing=None):
    """Run children with ``delays`` plus same-instant markers per child;
    returns the order in which markers, children and the join fired.

    ``failing`` is the index of a child that fails instead of succeeding.
    """
    env = Environment()
    log = []
    children = []
    for index, delay in enumerate(delays):
        child = env.event()
        children.append(child)

        def fire(_event, child=child, index=index):
            if index == failing:
                child.fail(Boom(index))
            else:
                child.succeed(index)

        env.timeout(delay).callbacks.append(fire)
        child.callbacks.append(
            lambda event, index=index: log.append(("child", index, env.now))
        )
        # A marker scheduled after the child's trigger at the same
        # instant pins where the join lands between them.
        env.timeout(delay).callbacks.append(
            lambda _event, index=index: log.append(("marker", index, env.now))
        )
    join = make_join(env, children)
    # Triggered by each child *after* the join's own callback: a join
    # that took an extra kernel hop to fire would land behind these.
    for index, child in enumerate(children):

        def after(_event, index=index):
            echo = env.event()
            echo.callbacks.append(
                lambda _echo: log.append(("after", index, env.now))
            )
            echo.succeed()

        child.callbacks.append(after)

    def on_join(event):
        outcome = "ok" if event.ok else f"failed:{event.value.args[0]}"
        log.append(("join", outcome, env.now))

    join.callbacks.append(on_join)
    env.run()
    return log


class TestMatchesAllOf:
    def test_fires_at_the_same_time_and_position(self):
        delays = [2.0, 1.0, 2.0, 0.5]
        ours = dispatch_log(join_all, delays)
        reference = dispatch_log(AllOf, delays)
        assert ours == reference
        assert ("join", "ok", 2.0) in ours

    def test_value_is_none(self):
        env = Environment()
        join = join_all(env, [env.timeout(1.0, value="a")])
        env.run()
        assert join.ok and join.value is None

    @given(
        st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0]),
            min_size=1,
            max_size=8,
        ),
        st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
    )
    @settings(max_examples=150, deadline=None)
    def test_dispatch_order_equals_all_of(self, delays, failing):
        if failing is not None:
            failing %= len(delays)
        ours = dispatch_log(join_all, delays, failing)
        reference = dispatch_log(AllOf, delays, failing)
        assert ours == reference


class TestFailure:
    def test_first_failure_fails_at_once_and_later_children_are_ignored(self):
        env = Environment()
        first, second, third = env.event(), env.event(), env.event()
        join = join_all(env, [first, second, third])
        seen = []

        def story(env):
            yield env.timeout(1.0)
            second.fail(Boom("second"))
            yield env.timeout(1.0)
            third.fail(Boom("third"))
            first.succeed()

        def waiter(env):
            try:
                yield join
            except Boom as exc:
                seen.append((env.now, exc.args[0]))

        env.process(story(env))
        env.process(waiter(env))
        # The late failure has no other waiter: sink it.
        third.callbacks.append(lambda _event: None)
        env.run()
        assert seen == [(1.0, "second")]
        assert not join.ok


class TestAlreadyProcessedChildren:
    def test_processed_children_count_up_front(self):
        env = Environment()
        early = env.timeout(1.0)
        env.run()
        late = env.timeout(2.0)
        join = join_all(env, [early, late])
        env.run()
        assert join.ok and join.processed and env.now == 3.0

    def test_all_processed_fires_at_once(self):
        env = Environment()
        children = [env.timeout(1.0), env.timeout(2.0)]
        env.run()
        join = join_all(env, children)
        assert join.triggered
        env.run()
        assert join.ok and env.now == 2.0

    def test_already_failed_child_fails_immediately(self):
        env = Environment()
        failed = env.event()
        failed.fail(Boom("early"))
        failed.callbacks.append(lambda _event: None)
        env.run()
        pending = env.timeout(5.0)
        join = join_all(env, [pending, failed])
        assert join.triggered and not join.ok
        with pytest.raises(Boom):
            env.run(until=join)
        assert env.now == 0.0


class TestEmpty:
    def test_empty_input_fires_at_once(self):
        env = Environment()
        join = join_all(env, [])
        assert join.triggered
        env.run()
        assert join.ok and join.value is None and env.now == 0.0
