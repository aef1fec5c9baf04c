"""Property tests: the one-object device against the two-object reference.

``TransferDevice`` makes each transfer a single object (the record is its
own done event), waits out the latency on a pooled wakeup, and admits to
or finishes from an otherwise idle device without the generic reshare
(settle every stream, water-fill, scan for the minimum, retract the old
wakeup).  None of that may move a single event: ``ReferenceDevice`` below
keeps the earlier algorithm — a separate done event per transfer, a
``Timeout`` plus a closure for the latency, an epoch-checked wakeup and
the general reshare on every change — and generated plans must finish at
``==``-equal times, in the same order, with the same integrals and the
same number of dispatched kernel events.

Both devices follow the ordering rule of DESIGN.md §8: a wakeup
processes the transfers it completes in place (``Environment.fire``),
ahead of the events already queued for that instant; a transfer that
completes on admission (zero bytes) is queued.
"""

from hypothesis import example, given, settings, strategies as st

from repro.sim import Environment
from repro.sim.events import Event
from repro.storage import MB, TransferDevice, seek_thrash_penalty

EPSILON_BYTES = 1e-2
BANDWIDTH = 100 * MB


class ReferenceTransfer:
    __slots__ = ("nbytes", "remaining", "done", "rate_cap", "rate")

    def __init__(self, nbytes, done, rate_cap):
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.done = done
        self.rate_cap = rate_cap
        self.rate = 0.0


class ReferenceDevice:
    """The device before transfers became their own events: every admit
    and every wakeup takes the general settle/reshare path."""

    def __init__(
        self, env, name, bandwidth, latency=0.0, penalty=None, default_rate_cap=None
    ):
        self.env = env
        self.bandwidth = float(bandwidth)
        self.rate_cap = default_rate_cap
        self.latency = float(latency)
        self.penalty = penalty
        self._active = []
        self._epoch = 0
        self._expected_finisher = None
        self._pending_wakeup = None
        self._last_update = env.now
        self._busy_time = 0.0
        self._bytes_moved = 0.0

    def transfer(self, nbytes):
        done = Event(self.env)
        record = ReferenceTransfer(nbytes, done, self.rate_cap)
        if self.latency > 0:
            delay = self.env.timeout(self.latency)
            delay.callbacks.append(lambda _event, rec=record: self._admit(rec))
        else:
            self._admit(record)
        return done

    def set_bandwidth(self, bandwidth):
        if bandwidth == self.bandwidth:
            return
        self._settle()
        self.bandwidth = float(bandwidth)
        self._reschedule()

    @property
    def busy_time(self):
        self._settle()
        return self._busy_time

    @property
    def bytes_moved(self):
        self._settle()
        return self._bytes_moved

    def _admit(self, record):
        self._settle()
        if record.remaining <= EPSILON_BYTES:
            record.done.succeed(record)
            record.done = None
            return
        self._active.append(record)
        self._reschedule()

    def _recompute_rates(self):
        active = self._active
        inf = float("inf")
        budget = self.bandwidth * self.penalty(len(active))
        count = len(active)
        for record in sorted(
            active, key=lambda t: inf if t.rate_cap is None else t.rate_cap
        ):
            fair = budget / count
            cap = record.rate_cap
            rate = fair if cap is None else min(cap, fair)
            record.rate = rate
            budget -= rate
            count -= 1

    def _settle(self):
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

    def _reschedule(self):
        self._epoch += 1
        self._expected_finisher = None
        if self._pending_wakeup is not None:
            self._pending_wakeup.cancel()
            self._pending_wakeup = None
        if not self._active:
            return
        epoch = self._epoch
        self._recompute_rates()
        projected = None
        best = float("inf")
        for record in self._active:
            if record.rate > 0:
                finish = record.remaining / record.rate
                if finish < best:
                    best = finish
                    projected = record
        self._expected_finisher = projected
        wakeup = self.env.pooled_timeout(max(0.0, best), value=epoch)
        wakeup.callbacks.append(self._wakeup)
        self._pending_wakeup = wakeup

    def _wakeup(self, event):
        self._pending_wakeup = None
        if event._value != self._epoch:
            return
        self._settle()
        if self._expected_finisher is not None:
            self._expected_finisher.remaining = 0.0
        finished = [r for r in self._active if r.remaining <= EPSILON_BYTES]
        for record in finished:
            self._active.remove(record)
        self._reschedule()
        for record in finished:
            record.remaining = 0.0
            self.env.fire(record.done, record)
            record.done = None


def run_plan(device_class, plan, latency, alpha, bandwidth_change, cap=None):
    """Replay ``plan`` on a fresh device whose streams share ``cap``.

    Returns the completion log ``[(index, time)]`` in completion order,
    the device integrals, and the number of kernel events dispatched.
    """
    env = Environment()
    dispatched = [0]

    def count(_when, _event, _callbacks):
        dispatched[0] += 1

    env.monitor = count
    device = device_class(
        env,
        "d",
        bandwidth=BANDWIDTH,
        latency=latency,
        penalty=seek_thrash_penalty(alpha),
        default_rate_cap=cap,
    )
    completions = []

    def issuer(env, index, delay, nbytes):
        yield env.timeout(delay)
        yield device.transfer(nbytes)
        completions.append((index, env.now))

    def throttle(env, at, factor):
        yield env.timeout(at)
        device.set_bandwidth(BANDWIDTH * factor)

    for index, (delay, nbytes) in enumerate(plan):
        env.process(issuer(env, index, delay, nbytes))
    if bandwidth_change is not None:
        env.process(throttle(env, *bandwidth_change))
    env.run()
    return completions, device.busy_time, device.bytes_moved, dispatched[0]


# Arrival delays mix a shared grid (same-instant arrivals, completions
# that coincide with arrivals) with arbitrary floats (staggered ones).
delays = st.one_of(
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=3.0),
)
# Sizes include empty and sub-epsilon transfers, which complete on
# admission without joining the shared stream.
sizes = st.one_of(
    st.sampled_from([0.0, EPSILON_BYTES / 2, EPSILON_BYTES, 64 * MB]),
    st.floats(min_value=0.1 * MB, max_value=128 * MB),
)
#: The device's per-stream cap: absent, or binding anywhere from far
#: below to above the device bandwidth.
caps = st.one_of(st.none(), st.floats(min_value=0.5 * MB, max_value=200 * MB))
plans = st.lists(st.tuples(delays, sizes), min_size=1, max_size=12)
latencies = st.sampled_from([0.0, 0.0001, 0.008, 0.25])
alphas = st.sampled_from([0.0, 0.1, 0.5, 2.0])
bandwidth_changes = st.one_of(
    st.none(),
    st.tuples(
        st.floats(min_value=0.0, max_value=3.0),
        st.sampled_from([0.25, 0.5, 2.0]),
    ),
)


class TestMatchesReference:
    @given(plans, latencies, alphas, bandwidth_changes, caps)
    @settings(max_examples=250, deadline=None)
    # A wakeup-completed transfer (index 10) finishing at the instant of
    # a zero-byte one queued just before the wakeup (index 9): the
    # in-place completion runs first.
    @example(
        plan=[(0.0, 0.0)] * 9 + [(1.0, 0.0), (0.0, 512 * 1024.0)],
        latency=0.0,
        alpha=0.0,
        bandwidth_change=None,
        cap=512 * 1024.0,
    )
    def test_trajectories_are_identical(
        self, plan, latency, alpha, bandwidth_change, cap
    ):
        ours = run_plan(
            TransferDevice, plan, latency, alpha, bandwidth_change, cap
        )
        reference = run_plan(
            ReferenceDevice, plan, latency, alpha, bandwidth_change, cap
        )
        completions, busy, moved, events = ours
        ref_completions, ref_busy, ref_moved, ref_events = reference
        # Same order, and each time equal with ==, not approx.
        assert completions == ref_completions
        assert len(completions) == len(plan)
        assert busy == ref_busy
        assert moved == ref_moved
        assert events == ref_events

    @given(latencies, alphas, st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_back_to_back_lone_streams(self, latency, alpha, count):
        """The common case: each stream lands on an idle device."""
        plan = [(float(index), 32 * MB) for index in range(count)]
        assert run_plan(TransferDevice, plan, latency, alpha, None) == (
            run_plan(ReferenceDevice, plan, latency, alpha, None)
        )
