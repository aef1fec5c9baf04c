"""Event primitives for the discrete-event simulation kernel.

The kernel is generator-based: simulation processes are Python generators
that ``yield`` :class:`Event` objects.  An event is *triggered* when it has
been given a value (or an exception) and scheduled on the engine's event
queue; once the engine pops it, the event is *processed* and its callbacks
run.  This mirrors the design of mature DES libraries while remaining a
small, fully self-contained implementation.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .engine import Environment
    from .process import Process

#: Priority band for events that must run before ordinary events at the
#: same timestamp (used for interrupts).
URGENT = 0
#: Priority band for ordinary events.
NORMAL = 1

#: Queue entries are ``(time, key, event)`` 3-tuples where ``key`` packs
#: the priority band above the insertion counter: ``(priority << 56) +
#: eid``.  A single int comparison then reproduces the (priority, eid)
#: lexicographic order, and the smaller tuples are cheaper to build and
#: compare in the heap — the kernel's hottest data structure.  Counters
#: stay far below 2**56 (a large run emits ~10**5 events).
PRIORITY_SHIFT = 56
#: Precomputed key base for NORMAL, the band of nearly every event.
NORMAL_KEY = NORMAL << PRIORITY_SHIFT


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class Interrupt(SimulationError):
    """Raised inside a process that another process interrupted.

    The interrupting party supplies ``cause`` which the interrupted
    process can inspect to decide how to react.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:
        return f"Interrupt(cause={self.cause!r})"


class Event:
    """A happening in simulated time that processes may wait on.

    Events move through three states: *untriggered* (just created),
    *triggered* (value decided, queued on the engine), and *processed*
    (callbacks executed).  Waiting on an already-processed event resumes
    the waiter immediately at the current simulation time.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    #: Sentinel distinguishing "no value yet" from ``None`` values.
    PENDING = object()

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list] = []
        self._value: Any = Event.PENDING
        self._ok = True
        self._triggered = False
        self._processed = False

    @property
    def triggered(self) -> bool:
        """Whether a value (or exception) has been decided for this event."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """Whether callbacks for this event have already run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded, ``False`` if it failed."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value.

        Raises :class:`SimulationError` if the event is not yet triggered.
        """
        if self._value is Event.PENDING:
            raise SimulationError(f"{self!r} has not been triggered yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        # Inlined env.schedule(self, priority=NORMAL): succeed() fires for
        # nearly every event in a run, so skip the extra call.
        env = self.env
        env._eid += 1
        heappush(env._queue, (env.now, NORMAL_KEY + env._eid, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``.

        The exception will be re-raised inside every process waiting on
        this event.
        """
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        self._triggered = True
        self.env.schedule(self, priority=NORMAL)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (for chaining)."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def _mark_processed(self) -> None:
        self._processed = True
        self.callbacks = None

    def __repr__(self) -> str:
        state = (
            "processed"
            if self._processed
            else "triggered"
            if self._triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers after a fixed delay of simulated time."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        # Timeouts are born triggered, so initialize every field directly
        # instead of chaining through Event.__init__ and overwriting half
        # of them — this constructor is the kernel's hottest allocation.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self.delay = delay
        # Inlined env.schedule(self, priority=NORMAL, delay=delay).
        env._eid += 1
        heappush(env._queue, (env.now + delay, NORMAL_KEY + env._eid, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {hex(id(self))}>"


class PooledTimeout(Timeout):
    """A :class:`Timeout` owned by the engine's free pool.

    Created via ``Environment.pooled_timeout``; the dispatch loop returns
    the object to the pool immediately after running its callbacks, so a
    pooled timeout must be **fire-and-forget**: no caller may retain the
    reference past processing (e.g. inside a :class:`Condition`) — it
    would alias a future, recycled wakeup.  Periodic kernel-internal
    wakeups (device reschedules, heartbeat grid sleeps, replay drivers)
    use this to avoid one allocation per event.

    ``cancel()`` retracts a speculative wakeup: the dispatch loop skips
    the callbacks entirely and recycles the object without re-entering
    Python — cheaper than dispatching into a callback that immediately
    discovers it is stale.
    """

    __slots__ = ("_cancelled",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self.delay = delay
        self._cancelled = False
        env._eid += 1
        heappush(env._queue, (env.now + delay, NORMAL_KEY + env._eid, self))

    def cancel(self) -> None:
        """Retract the wakeup: its callbacks will never run."""
        self._cancelled = True

    def __repr__(self) -> str:
        state = "cancelled " if self._cancelled else ""
        return f"<PooledTimeout {state}delay={self.delay} at {hex(id(self))}>"


def join_all(env: "Environment", events: Iterable[Event]) -> Event:
    """Event that fires once every child has fired (lightweight ``AllOf``).

    The hot fan-in points of the stack — remote block reads, shuffle
    fetches, write replication — join events purely for synchronization
    and never look at the result value.  The generic :class:`Condition`
    machinery allocates a :class:`ConditionValue` and runs bookkeeping
    per child that such callers pay for without using; this helper keeps
    only the countdown.  Failure semantics match ``AllOf``: the first
    failed child fails the join immediately.  The join's value is
    ``None``, so use :class:`AllOf` when child values matter.
    """
    join = _Join(env)
    arm = join._arm
    pending = 0
    for event in events:
        callbacks = event.callbacks
        if callbacks is None:
            # Already processed: count it down up front (mirrors the
            # immediate _check AllOf performs for processed children).
            if not event._ok:
                join.fail(event._value)
                return join
        else:
            callbacks.append(arm)
            pending += 1
    join._pending = pending
    if pending == 0:
        join.succeed(None)
    return join


class _Join(Event):
    """The event :func:`join_all` returns: a countdown of the children
    still pending, armed on each of them through one bound method."""

    __slots__ = ("_pending",)

    def __init__(self, env: "Environment"):
        # Inlined Event.__init__: one join per remote read and per
        # network copy.
        self.env = env
        self.callbacks = []
        self._value = Event.PENDING
        self._ok = True
        self._triggered = False
        self._processed = False
        self._pending = 0

    def _arm(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(None)


def chain_arrivals(
    env: "Environment",
    arrivals: Iterable[Tuple[float, Any]],
    on_arrival: Callable[[Any], None],
) -> None:
    """Call ``on_arrival(item)`` at each ``(time, item)`` of ``arrivals``.

    A replay driver without a process or a pre-built arrival heap: only
    the next arrival is ever queued.  Each arrival schedules its
    successor with ``Environment.timeout_at`` (so the successor lands on
    its exact time) *before* running ``on_arrival``, so the successor's
    event id precedes everything the arrival itself schedules.  Times
    must be non-decreasing; ``timeout_at`` raises if one goes back.
    """
    _ArrivalChain(env, iter(arrivals), on_arrival).queue_next()


class _ArrivalChain:
    """State of one :func:`chain_arrivals` stream.  A class rather than
    a self-scheduling closure: a closure that appends itself is a
    reference cycle the kernel (which runs with the cyclic GC off) would
    leave behind."""

    __slots__ = ("env", "upcoming", "on_arrival")

    def __init__(self, env, upcoming, on_arrival):
        self.env = env
        self.upcoming = upcoming
        self.on_arrival = on_arrival

    def queue_next(self) -> None:
        following = next(self.upcoming, None)
        if following is not None:
            self.env.timeout_at(following[0], following[1]).callbacks.append(
                self.arrive
            )

    def arrive(self, event: Event) -> None:
        self.queue_next()
        self.on_arrival(event._value)


class ConditionValue:
    """Mapping-like result of a condition event.

    Maps each triggered child event to its value, preserving insertion
    order so ``AllOf`` results read in the order events were passed.
    """

    def __init__(self) -> None:
        self.events: list = []

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(repr(key))
        return key._value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def keys(self):
        return iter(self.events)

    def values(self):
        return (event._value for event in self.events)

    def items(self):
        return ((event, event._value) for event in self.events)

    def todict(self) -> dict:
        return {event: event._value for event in self.events}

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Waits for a combination of events (see :class:`AllOf`, :class:`AnyOf`).

    ``evaluate`` receives the list of child events and the count of
    triggered children and returns ``True`` once the condition holds.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list, int], bool],
        events: Iterable[Event],
    ):
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("all events must share one environment")

        if not self._events:
            self.succeed(ConditionValue())
            return

        for event in self._events:
            if event._processed:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _collect_values(self) -> ConditionValue:
        value = ConditionValue()
        for event in self._events:
            # Only include children whose callbacks have already run;
            # a pending Timeout is "triggered" from birth but has not
            # actually happened yet.
            if event._processed and event._ok:
                value.events.append(event)
        return value

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        self._count += 1
        if not event._ok:
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())

    @staticmethod
    def all_events(events: list, count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: list, count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Triggers once every child event has triggered."""

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Triggers as soon as any child event triggers."""

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, Condition.any_events, events)
