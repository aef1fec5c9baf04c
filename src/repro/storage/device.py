"""Processor-sharing storage device model.

A :class:`TransferDevice` serves any number of concurrent byte transfers.
The device has an *aggregate* bandwidth that depends on the number of
concurrent streams through a pluggable concurrency-penalty curve: one
sequential stream gets the full sequential bandwidth, while many
concurrent streams on a spinning disk interleave and the aggregate
degrades.  This is the physical effect Ignem exploits — a dedicated
sequential migration stream moves bytes more efficiently than a busy
mapper wave (paper Section III-A1, Figure 1, and the Ignem+10s result in
Section IV-F).

Sharing is fair: the streams split the aggregate budget, and a device
may carry one per-stream ceiling (``default_rate_cap``: DRAM is a huge
aggregate whose individual streams still run at memcpy speed) that
every stream on it shares.  Whenever the active set changes, progress
is settled at the old rates and the next completion is rescheduled.

A transfer is one object: the :class:`Transfer` record *is* the event
its waiters yield, and the device wakeup that finishes it processes it
in place, so a finished transfer costs one kernel event.  Most
transfers in a run land on an otherwise idle device (a lone block read
or migration), so admitting a stream to an empty device and finishing
the only active stream are the one-stream case of the reshare path: no
other stream to settle, no minimum to scan for, no superseded wakeup to
cancel.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..sim.engine import Environment
from ..sim.events import Event, PooledTimeout

#: Tolerance (in bytes) below which a transfer counts as finished.
#: Sub-byte remainders are float noise, never real data.
_EPSILON_BYTES = 1e-2

MB = 1024 * 1024
GB = 1024 * MB


def _consume_failure(event: Event) -> None:
    """Sink callback marking an intentionally-aborted event as handled."""


class Transfer(Event):
    """One byte transfer on a :class:`TransferDevice`, and the event that
    fires when it is done.

    The event succeeds with value ``None`` (a value of ``self`` would be
    a reference cycle, and ``Environment.run`` keeps the cyclic GC off)
    or fails with the error of the host failure that aborted it.  The
    device's ``on_complete`` hook receives the record itself.
    """

    __slots__ = (
        "nbytes",
        "remaining",
        "tag",
        "rate",
        "submitted_at",
        "started_at",
    )

    def __init__(self, env: Environment, nbytes: float, tag: Any = None):
        # Inlined Event.__init__: one of these is built per device leg.
        self.env = env
        self.callbacks = []
        self._value = Event.PENDING
        self._ok = True
        self._triggered = False
        self._processed = False
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.tag = tag
        #: Current allocated rate (bytes/s); set by the device.
        self.rate = 0.0
        self.submitted_at: float = env.now
        self.started_at: Optional[float] = None

    def __repr__(self) -> str:
        return (
            f"<Transfer {self.nbytes / MB:.1f}MB "
            f"remaining={self.remaining / MB:.1f}MB tag={self.tag!r}>"
        )


def no_penalty(streams: int) -> float:
    """Aggregate efficiency is 1.0 regardless of concurrency (RAM-like)."""
    return 1.0


def seek_thrash_penalty(alpha: float) -> Callable[[int], float]:
    """HDD-style penalty: aggregate efficiency 1 / (1 + alpha * (n - 1)).

    With ``alpha=0`` the device is a pure PS server; larger ``alpha``
    makes concurrent streams collectively slower than one sequential
    stream, modeling seek overhead between interleaved readers.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")

    def penalty(streams: int) -> float:
        if streams <= 1:
            return 1.0
        return 1.0 / (1.0 + alpha * (streams - 1))

    return penalty


class TransferDevice:
    """A storage device serving concurrent transfers by fair processor
    sharing.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Human-readable identifier (shows up in metrics).
    bandwidth:
        Sequential (single-stream) bandwidth in bytes/second.
    latency:
        Fixed per-transfer setup time in seconds (seek + request setup).
        Modeled as a delay before the transfer joins the shared stream.
    penalty:
        Aggregate-efficiency curve ``f(n) -> (0, 1]``; the device moves
        at most ``bandwidth * f(n)`` bytes/second across ``n`` streams.
    default_rate_cap:
        Per-stream ceiling shared by every transfer on the device.  Lets
        DRAM be modeled as a huge aggregate whose individual streams
        still run at memcpy speed.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        bandwidth: float,
        latency: float = 0.0,
        penalty: Optional[Callable[[int], float]] = None,
        default_rate_cap: Optional[float] = None,
    ):
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise ValueError(f"latency must be non-negative, got {latency}")
        if default_rate_cap is not None and default_rate_cap <= 0:
            raise ValueError(
                f"default_rate_cap must be positive, got {default_rate_cap}"
            )
        self.env = env
        self.name = name
        self.latency = float(latency)
        self.penalty = penalty or no_penalty
        self.bandwidth = bandwidth
        self.default_rate_cap = default_rate_cap

        self._active: List[Transfer] = []
        #: Transfers still in their latency window, each mapped to the
        #: pooled wakeup that will admit it (``fail_all`` retracts it).
        self._waiting: Dict[Transfer, PooledTimeout] = {}
        self._expected_finisher: Optional[Transfer] = None
        self._pending_wakeup: Optional[PooledTimeout] = None
        self._last_update = env.now
        # Instrumentation integrals.
        self._busy_time = 0.0
        self._bytes_moved = 0.0
        #: Completion hook ``(Transfer) -> None``, fired per successful
        #: transfer.  ``None`` is the zero-overhead clean path; the
        #: observability layer installs one when storage tracing is on.
        self.on_complete: Optional[Callable[[Transfer], None]] = None

    # -- public API ----------------------------------------------------------

    @property
    def bandwidth(self) -> float:
        """Sequential (single-stream) bandwidth in bytes/second.

        Assigning it takes effect at the next admission or completion,
        without settling the progress made so far (use
        :meth:`set_bandwidth` for that).
        """
        return self._bandwidth

    @bandwidth.setter
    def bandwidth(self, bandwidth: float) -> None:
        self._bandwidth = float(bandwidth)
        # Aggregate budget of a lone stream: the rate an idle device
        # grants without a reshare.
        self._solo_budget = self._bandwidth * self.penalty(1)

    def transfer(self, nbytes: float, tag: Any = None) -> Transfer:
        """Start moving ``nbytes``; returns the :class:`Transfer`, which is
        the event that fires when the bytes have moved.

        The event's value is ``None``; the ``on_complete`` hook receives
        the record.  Zero-byte transfers complete after just the device
        latency.

        The latency wait is a pooled wakeup carrying the record, so a
        transfer allocates nothing but itself.  The record refers to
        neither the device nor the wakeup, so it (and its tag) is freed
        by reference counting as soon as the waiters drop it, even while
        ``Environment.run`` keeps the cyclic GC off.
        """
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        record = Transfer(self.env, nbytes, tag)
        if self.latency > 0:
            wakeup = self.env.pooled_timeout(self.latency, record)
            wakeup.callbacks.append(self._arrive)
            self._waiting[record] = wakeup
        else:
            self._admit(record)
        return record

    def set_bandwidth(self, bandwidth: float) -> None:
        """Change the sequential bandwidth mid-run (slow-disk fault).

        Progress made so far is settled at the old rates; every in-flight
        transfer continues at the new speed.  Used by the fault injector
        to model a straggling disk without disturbing the transfer set.
        """
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth}")
        if bandwidth == self.bandwidth:
            return
        self._settle()
        self.bandwidth = bandwidth
        self._reschedule()

    def fail_all(self, error: BaseException) -> int:
        """Abort every transfer on the device, failing it with ``error``
        (the device's host died).  Returns the abort count.

        Transfers still in their latency window are aborted too: their
        admission wakeup is retracted, so they fail at the failure
        instant and never reach the dead device.  Active transfers fail
        first, then waiting ones in submission order.

        A waiter that died in the same host failure (its container is
        interrupted at URGENT priority, unsubscribing it before the
        failed event processes) would leave the event callback-less and
        the engine would treat the failure as unhandled — so each
        aborted event gets a sink callback; live waiters still see the
        exception.
        """
        failed = self._active
        if failed:
            self._settle()
            self._active = []
            self._reschedule()
        waiting = self._waiting
        if waiting:
            for wakeup in waiting.values():
                wakeup.cancel()
                wakeup._value = None
            failed = failed + list(waiting)
            self._waiting = {}
        for record in failed:
            record.fail(error)
            record.callbacks.append(_consume_failure)
        return len(failed)

    @property
    def active_transfers(self) -> int:
        """Number of transfers currently sharing the device."""
        return len(self._active)

    @property
    def busy_time(self) -> float:
        """Total simulated seconds during which >=1 transfer was active."""
        self._settle()
        return self._busy_time

    @property
    def bytes_moved(self) -> float:
        """Total bytes transferred so far."""
        self._settle()
        return self._bytes_moved

    # -- internals -------------------------------------------------------------

    def _arrive(self, event: PooledTimeout) -> None:
        """The latency window of ``event``'s transfer is over."""
        record = event._value
        event._value = None  # the pool must not keep the record alive
        del self._waiting[record]
        self._admit(record)

    def _admit(self, record: Transfer) -> None:
        now = self.env.now
        active = self._active
        idle = not active
        if idle:
            # Nothing to settle: only the clock moves.
            self._last_update = now
        else:
            self._settle()
        record.started_at = now
        if record.remaining <= _EPSILON_BYTES:
            record.succeed(None)
            if self.on_complete is not None:
                self.on_complete(record)
            return
        active.append(record)
        if idle:
            # The one-stream reshare: the lone stream takes the solo
            # budget clipped by the cap (``_recompute_rates``' one-stream
            # branch), it is the next finisher, and an idle device has no
            # wakeup to retract.  ``remaining / rate`` is positive, so it
            # needs no clamp.
            cap = self.default_rate_cap
            budget = self._solo_budget
            rate = budget if cap is None else min(cap, budget)
            record.rate = rate
            self._expected_finisher = record
            wakeup = self.env.pooled_timeout(record.remaining / rate)
            wakeup.callbacks.append(self._wakeup)
            self._pending_wakeup = wakeup
        else:
            self._reschedule()

    def _recompute_rates(self) -> None:
        """Set fair rates on the active set, writing each record's
        ``rate`` in place.

        Shares are granted in ``active`` order from a running budget, so
        slack under the cap (when the cap binds) flows to the later
        streams.
        """
        active = self._active
        cap = self.default_rate_cap
        streams = len(active)
        if streams == 1:
            # Lone stream: the whole budget, clipped by the cap.  Matches
            # the general path bit for bit (``budget / 1`` is exact).
            budget = self._solo_budget
            active[0].rate = budget if cap is None else min(cap, budget)
            return
        budget = self._bandwidth * self.penalty(streams)
        count = streams
        for record in active:
            fair = budget / count
            rate = fair if cap is None else min(cap, fair)
            record.rate = rate
            budget -= rate
            count -= 1

    def _settle(self) -> None:
        """Account progress for all active transfers up to ``env.now``
        at the rates fixed by the last reschedule."""
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._active:
            return
        moved = 0.0
        for record in self._active:
            delta = record.rate * elapsed
            record.remaining -= delta
            moved += delta
        self._busy_time += elapsed
        self._bytes_moved += moved

    def _reschedule(self) -> None:
        """Fix rates for the active set and schedule the next completion."""
        self._expected_finisher = None
        pending = self._pending_wakeup
        if pending is not None:
            # Retract the superseded wakeup so the dispatch loop recycles
            # it without re-entering Python.
            pending.cancel()
            self._pending_wakeup = None
        active = self._active
        if not active:
            return
        self._recompute_rates()
        # First transfer with the smallest projected finish time (manual
        # min: avoids a lambda call per stream; strict ``<`` keeps the
        # same first-wins tie-breaking as min() with a key).
        projected: Optional[Transfer] = None
        best = float("inf")
        for record in active:
            rate = record.rate
            if rate > 0:
                finish = record.remaining / rate
                if finish < best:
                    best = finish
                    projected = record
        if projected is None:
            return  # everything is stalled (a zero cap — impossible)
        # Remember who this wakeup is for.  Every change to the active set
        # or the rates retracts the pending wakeup, so one that fires
        # finds them unchanged: the projected transfer has truly finished
        # even when float round-off leaves a sub-epsilon residue that a
        # same-instant timeout could never burn down.
        self._expected_finisher = projected
        wakeup = self.env.pooled_timeout(max(0.0, best))
        wakeup.callbacks.append(self._wakeup)
        self._pending_wakeup = wakeup

    def _wakeup(self, event: Event) -> None:
        """The projected finisher is done: complete it, and any stream
        that finished with it, inside this dispatch.

        Finished transfers are fired in place (``Environment.fire``) as
        the wakeup's last act, so a transfer costs one kernel event, not
        a wakeup plus a queued completion.  The ``on_complete`` hook sees
        each record before its callbacks run.
        """
        self._pending_wakeup = None
        active = self._active
        hook = self.on_complete
        if len(active) == 1:
            # The one-stream case: the lone stream is the expected
            # finisher.  Settle it (only the integrals are observable:
            # its ``remaining`` is zeroed at completion) and complete it;
            # the device is idle again with no wakeup pending.
            record = active.pop()
            self._expected_finisher = None
            now = self.env.now
            elapsed = now - self._last_update
            self._last_update = now
            if elapsed > 0:
                self._busy_time += elapsed
                self._bytes_moved += record.rate * elapsed
            record.remaining = 0.0
            if hook is not None:
                hook(record)
            self.env.fire(record)
            return
        self._settle()
        if self._expected_finisher is not None:
            self._expected_finisher.remaining = 0.0
        finished = [r for r in active if r.remaining <= _EPSILON_BYTES]
        for record in finished:
            active.remove(record)
        # Reschedule *before* firing the events: completion callbacks
        # may start new transfers on this device synchronously.
        self._reschedule()
        for record in finished:
            record.remaining = 0.0
            if hook is not None:
                hook(record)
        fire = self.env.fire
        for index, record in enumerate(finished):
            try:
                fire(record)
            except BaseException:
                # A callback ended the dispatch (``run(until=record)``
                # stops here): queue the rest, so a resumed run still
                # completes them.
                for rest in finished[index + 1 :]:
                    rest.succeed(None)
                raise

    def __repr__(self) -> str:
        return (
            f"<TransferDevice {self.name!r} bw={self.bandwidth / MB:.0f}MB/s "
            f"active={len(self._active)}>"
        )
