"""The simulation engine: a time-ordered event queue and its run loop."""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from typing import Any, Generator, Optional, Union

from .events import (
    NORMAL,
    NORMAL_KEY,
    PRIORITY_SHIFT,
    Event,
    PooledTimeout,
    SimulationError,
    Timeout,
)
from .process import Process


class EmptySchedule(SimulationError):
    """Raised internally when the event queue runs dry."""


class StopSimulation(Exception):
    """Raised to end :meth:`Environment.run` when the *until* event fires."""


class Environment:
    """Execution environment for a discrete-event simulation.

    Time is a float with arbitrary units (this project uses seconds).
    Events are processed in ``(time, priority, insertion order)`` order so
    simultaneous events execute deterministically; queue entries pack
    priority and insertion counter into one int key (see
    ``events.PRIORITY_SHIFT``).
    """

    __slots__ = (
        "now",
        "_queue",
        "_eid",
        "_active_process",
        "monitor",
        "_timeout_pool",
    )

    def __init__(self, initial_time: float = 0.0):
        #: Current simulation time.  A plain attribute (not a property):
        #: it is read on nearly every operation in the stack, and property
        #: dispatch is measurable at that volume.  Treat as read-only.
        self.now = float(initial_time)
        self._queue: list = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        #: Free list of recycled :class:`PooledTimeout` objects.
        self._timeout_pool: list = []
        #: Optional kernel monitor ``(when, event, callbacks) -> None``,
        #: called once per dispatched event.  ``None`` keeps the run loop
        #: on the untouched fast path; the observability layer installs
        #: one only when ``ObservabilityConfig.sim_events`` is set.
        self.monitor: Optional[Any] = None

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being executed, if any."""
        return self._active_process

    @property
    def events_scheduled(self) -> int:
        """How many events have been put on the queue since creation."""
        return self._eid

    # -- event factories ---------------------------------------------------

    def event(self) -> Event:
        """Create a new untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """Create an event that triggers at absolute time ``when``.

        ``timeout(when - now)`` can miss ``when`` by an ulp, because
        ``now + (when - now)`` need not round back to ``when``.  Arrival
        drivers that schedule each arrival from the previous one use this
        to land every arrival on its exact trace time.
        """
        now = self.now
        if when < now:
            raise ValueError(f"time {when} is before now ({now})")
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._value = value
        event._ok = True
        event._triggered = True
        event._processed = False
        event.delay = when - now
        self._eid += 1
        heappush(self._queue, (when, NORMAL_KEY + self._eid, event))
        return event

    def pooled_timeout(self, delay: float, value: Any = None) -> PooledTimeout:
        """A timeout drawn from the engine's free pool.

        The dispatch loop recycles the object right after its callbacks
        run (or immediately, skipping the callbacks, when it was
        cancelled), so the caller must not retain the reference past
        processing.  Scheduling order, keys and timing are identical to
        :meth:`timeout`; only the allocation is saved.
        """
        pool = self._timeout_pool
        if not pool:
            return PooledTimeout(self, delay, value)
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        event = pool.pop()
        event.callbacks = []
        event._value = value
        event._processed = False
        event._cancelled = False
        event.delay = delay
        self._eid += 1
        heappush(self._queue, (self.now + delay, NORMAL_KEY + self._eid, event))
        return event

    def process(
        self, generator: Generator[Event, Any, Any], name: str = ""
    ) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    # -- scheduling ---------------------------------------------------------

    def schedule(
        self, event: Event, priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        """Queue ``event`` to be processed ``delay`` time units from now."""
        self._eid += 1
        heappush(
            self._queue,
            (self.now + delay, (priority << PRIORITY_SHIFT) + self._eid, event),
        )

    def fire(self, event: Event, value: Any = None) -> None:
        """Succeed ``event`` with ``value`` and run its callbacks in place.

        The event is processed inside the current dispatch instead of
        being queued behind it: nothing is queued, no event id is
        consumed, and an installed monitor sees the event once, as if
        the run loop had popped it.  Call it only as the last act of a
        dispatch (a device wakeup completing its transfer), so the
        callbacks find the caller's state settled.  They then run ahead
        of the other events already queued for this instant instead of
        behind them.  Like :meth:`Event.succeed`, it raises
        :class:`SimulationError` if the event was already triggered.

        >>> env = Environment()
        >>> done = env.event()
        >>> done.callbacks.append(lambda event: print(env.now, event.value))
        >>> env.fire(done, "moved")
        0.0 moved
        >>> done.processed, env.events_scheduled
        (True, 0)
        """
        if event._triggered:
            raise SimulationError(f"{event!r} has already been triggered")
        event._ok = True
        event._value = value
        event._triggered = True
        callbacks = event.callbacks
        event._processed = True
        event.callbacks = None
        if self.monitor is not None:
            self.monitor(self.now, event, callbacks)
        for callback in callbacks:
            callback(event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none remain."""
        if not self._queue:
            return float("inf")
        return self._queue[0][0]

    def step(self) -> None:
        """Process the single next event.

        Raises :class:`EmptySchedule` if no events remain, and re-raises
        exceptions from failed events that no process was waiting on (so
        programming errors never pass silently).
        """
        try:
            when, _, event = heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None

        self.now = when
        # Inlined Event._mark_processed: this is the single hottest
        # statement sequence in the kernel.
        callbacks = event.callbacks
        event._processed = True
        event.callbacks = None
        if self.monitor is not None:
            self.monitor(when, event, callbacks)
        if event.__class__ is PooledTimeout:
            if not event._cancelled:
                for callback in callbacks:
                    callback(event)
            self._timeout_pool.append(event)
            return
        for callback in callbacks:
            callback(event)

        if not event._ok and not callbacks:
            # A failed event (or crashed process) nobody was waiting on:
            # surface the error rather than letting it vanish.
            raise event._value

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run until simulation time reaches that value;
        * an :class:`Event` — run until that event is processed, returning
          its value (or raising its exception if it failed).
        """
        stop: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop = until
                if stop.callbacks is None:
                    # Already processed.
                    if stop._ok:
                        return stop._value
                    raise stop._value
                stop.callbacks.append(self._stop_callback)
            else:
                at = float(until)
                if at < self.now:
                    raise ValueError(
                        f"until ({at}) must not be before now ({self.now})"
                    )
                stop = Event(self)
                stop._ok = True
                stop._value = None
                stop._triggered = True
                self._eid += 1
                # Schedule at the stop time with the most urgent priority so
                # the clock never advances past it.
                heappush(
                    self._queue,
                    (at, (-1 << PRIORITY_SHIFT) + self._eid, stop),
                )
                stop.callbacks.append(self._stop_callback)

        # The kernel allocates short-lived events at a rate that makes
        # cyclic-GC pauses a measurable fraction of a run; nothing in the
        # simulator relies on finalizers, so suspend collection for the
        # duration and restore the caller's setting afterwards.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        # The run loop inlines step(): one Python-level call per event is
        # measurable at the millions-of-events scale of a SWIM run.  The
        # body must stay semantically identical to step().  The monitored
        # variant duplicates the loop rather than branching inside it so
        # the clean path pays nothing for observability.
        queue = self._queue
        pop = heappop
        monitor = self.monitor
        pool_append = self._timeout_pool.append
        pooled_class = PooledTimeout
        try:
            if monitor is None:
                while True:
                    try:
                        when, _, event = pop(queue)
                    except IndexError:
                        raise EmptySchedule() from None
                    self.now = when
                    callbacks = event.callbacks
                    event._processed = True
                    event.callbacks = None
                    if event.__class__ is pooled_class:
                        # Pooled wakeups never fail, and a cancelled one
                        # skips its callbacks entirely — no Python
                        # re-entry for a stale speculative wakeup.
                        if not event._cancelled:
                            for callback in callbacks:
                                callback(event)
                        pool_append(event)
                        continue
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not callbacks:
                        raise event._value
            else:
                while True:
                    try:
                        when, _, event = pop(queue)
                    except IndexError:
                        raise EmptySchedule() from None
                    self.now = when
                    callbacks = event.callbacks
                    event._processed = True
                    event.callbacks = None
                    monitor(when, event, callbacks)
                    if event.__class__ is pooled_class:
                        if not event._cancelled:
                            for callback in callbacks:
                                callback(event)
                        pool_append(event)
                        continue
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not callbacks:
                        raise event._value
        except StopSimulation as end:
            return end.args[0] if end.args else None
        except EmptySchedule:
            if stop is not None and not stop._triggered:
                if isinstance(until, Event):
                    raise SimulationError(
                        "no more events; the until-event was never triggered"
                    ) from None
            return None
        finally:
            if gc_was_enabled:
                gc.enable()

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event._ok:
            raise StopSimulation(event._value)
        raise event._value
