"""Deterministic structured tracing keyed on simulation time.

The :class:`Tracer` records spans ("X" phase) and instant events ("i"
phase) in the Chrome ``trace_event`` JSON format, with timestamps taken
from the simulation clock (microseconds of sim-time, never wall-clock).
Because the simulator is deterministic, two runs with the same seed emit
byte-identical traces — the tracer itself never reads wall-clock time,
random state, or object ids.

Output is JSONL: one trace-event object per line, sorted by timestamp,
so downstream tools can stream it and the shipped schema checker
(:mod:`repro.obs.schema`) can assert monotonicity.  The companion
:class:`TraceReader` loads a JSONL trace back and can re-wrap it as a
``{"traceEvents": [...]}`` array for ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import json
import pathlib
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

#: Conversion from sim-time seconds to trace microseconds.
_US = 1e6


class Tracer:
    """Collects trace events against a simulation clock.

    Parameters
    ----------
    env:
        Anything with a ``now`` attribute in seconds (the simulation
        :class:`~repro.sim.engine.Environment`).
    """

    def __init__(self, env):
        self.env = env
        #: Event tuples ``(ts_us, dur_us|None, ph, name, cat, tid, args)``.
        self._events: List[Tuple] = []
        #: Thread-name registry: chrome wants integer tids; we map stable
        #: human-readable lane names (node names, "jobs", "network") to
        #: ids in first-use order, which is deterministic.
        self._tids: Dict[str, int] = {}

    # -- emission --------------------------------------------------------------

    def _tid(self, lane: str) -> int:
        tid = self._tids.get(lane)
        if tid is None:
            tid = self._tids[lane] = len(self._tids)
        return tid

    def instant(
        self,
        name: str,
        category: str,
        lane: str = "cluster",
        args: Optional[Dict] = None,
        ts: Optional[float] = None,
    ) -> None:
        """Record a point-in-time event at ``ts`` (default: now)."""
        when = self.env.now if ts is None else ts
        self._events.append(
            (when * _US, None, "i", name, category, self._tid(lane), args)
        )

    def complete(
        self,
        name: str,
        category: str,
        start: float,
        end: Optional[float] = None,
        lane: str = "cluster",
        args: Optional[Dict] = None,
    ) -> None:
        """Record a completed span from ``start`` to ``end`` (default: now)."""
        finish = self.env.now if end is None else end
        self._events.append(
            (
                start * _US,
                max(0.0, (finish - start) * _US),
                "X",
                name,
                category,
                self._tid(lane),
                args,
            )
        )

    @property
    def num_events(self) -> int:
        return len(self._events)

    # -- serialization ----------------------------------------------------------

    def lines(self) -> List[str]:
        """The trace as JSONL lines (no trailing newlines), ts-sorted.

        Spans are recorded when they *finish* but carry their *start*
        timestamp (Chrome "X" semantics), so a stable sort on ts restores
        global time order; stability keeps same-instant events in
        execution order, which is deterministic.
        """
        out: List[str] = []
        for lane, tid in self._tids.items():
            out.append(
                json.dumps(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "cat": "__metadata",
                        "ts": 0,
                        "pid": 0,
                        "tid": tid,
                        "args": {"name": lane},
                    },
                    sort_keys=True,
                )
            )
        # Hand-rolled formatting (json.dumps only for the free-form args
        # dict): dumping tens of thousands of events is the hottest part
        # of a traced run, and every fixed field is a known-safe scalar.
        # Keys stay in sorted order so output matches sort_keys=True.
        dumps = json.dumps
        append = out.append
        for ts, dur, ph, name, cat, tid, args in sorted(
            self._events, key=itemgetter(0)
        ):
            # args keep their (deterministic) emission-site key order;
            # only the fixed envelope keys are promised sorted.
            head = (
                f'{{"args": {dumps(args)}, ' if args is not None else "{"
            )
            mid = f'"dur": {dur!r}, ' if dur is not None else ""
            append(
                f'{head}"cat": "{cat}", {mid}"name": "{name}", '
                f'"ph": "{ph}", "pid": 0, "tid": {tid}, "ts": {ts!r}}}'
            )
        return out

    def dump(self, path) -> pathlib.Path:
        """Write the trace as JSONL; returns the path written."""
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("\n".join(self.lines()) + "\n")
        return target

    def __repr__(self) -> str:
        return f"<Tracer events={len(self._events)}>"


class TraceReader:
    """Loads a JSONL trace back into structured form.

    ``TraceReader.load(path)`` parses the file written by
    :meth:`Tracer.dump`; :meth:`to_chrome` re-wraps it as the JSON-array
    format that ``chrome://tracing`` and Perfetto open directly.
    """

    def __init__(self, events: List[Dict]):
        self.events = events

    @classmethod
    def load(cls, path) -> "TraceReader":
        events = []
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
        return cls(events)

    # -- queries ----------------------------------------------------------------

    def filter(
        self, name: Optional[str] = None, category: Optional[str] = None
    ) -> List[Dict]:
        return [
            event
            for event in self.events
            if (name is None or event.get("name") == name)
            and (category is None or event.get("cat") == category)
        ]

    def spans(self, name: Optional[str] = None) -> List[Dict]:
        """All complete-spans (optionally by name)."""
        return [
            event
            for event in self.filter(name=name)
            if event.get("ph") == "X"
        ]

    def durations(self, name: str) -> List[float]:
        """Span durations for ``name``, converted back to seconds."""
        return [event["dur"] / _US for event in self.spans(name)]

    def lanes(self) -> Dict[int, str]:
        """tid -> human-readable lane name, from the metadata events."""
        return {
            event["tid"]: event["args"]["name"]
            for event in self.events
            if event.get("ph") == "M" and event.get("name") == "thread_name"
        }

    def to_chrome(self, path) -> pathlib.Path:
        """Write the ``{"traceEvents": [...]}`` array format for
        ``chrome://tracing`` / Perfetto; returns the path written."""
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            json.dumps({"traceEvents": self.events}, sort_keys=True) + "\n"
        )
        return target

    def __repr__(self) -> str:
        return f"<TraceReader events={len(self.events)}>"
