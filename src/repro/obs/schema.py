"""Trace schema checker: validates JSONL traces emitted by the Tracer.

Shipped with the package (and wired into CI) so any traced run can be
mechanically checked: every line must be a well-formed Chrome
``trace_event`` object, every event name must be registered in
:data:`KNOWN_EVENTS`, and timestamps must be non-decreasing.

Usage::

    python -m repro.obs.schema trace.jsonl

exits 0 on a valid trace and 1 with one error per line otherwise.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, FrozenSet, Iterable, List, Union

#: Every event name the instrumentation may emit, with its category.
#: The checker fails on names outside this registry, so adding an event
#: to the code without registering it here is caught by CI.
KNOWN_EVENTS: Dict[str, str] = {
    # sim kernel (opt-in: ObservabilityConfig.sim_events)
    "sim.dispatch": "sim",
    # storage layer
    "storage.transfer": "storage",
    "cache.insert": "storage",
    "cache.evict": "storage",
    # network
    "net.transfer": "net",
    # DFS
    "dfs.read": "dfs",
    # self-healing replication (repair / thinning / decommission)
    "dfs.repair.copy": "repair",
    "dfs.repair.drop": "repair",
    "dfs.repair.decommission": "repair",
    # Ignem master/slave
    "ignem.command.sent": "ignem",
    "ignem.command.retry": "ignem",
    "ignem.command.rerouted": "ignem",
    "ignem.command.abandoned": "ignem",
    "ignem.migration": "ignem",
    "ignem.eviction": "ignem",
    "ignem.do_not_harm_wait": "ignem",
    # scheduler
    "scheduler.launch": "scheduler",
    # MapReduce lifecycle
    "mapreduce.job": "job",
    "mapreduce.task": "job",
}

#: Trace categories, one per instrumented layer.  Every category but
#: "sim" is always traced; "sim" (the event-dispatch kernel) is opt-in
#: through ``ObservabilityConfig.sim_events``, because it multiplies
#: event volume by the dispatch count.
ALL_CATEGORIES: FrozenSet[str] = frozenset(KNOWN_EVENTS.values())

#: Metadata events (thread-name declarations) allowed alongside data.
_METADATA_NAMES = {"thread_name"}
_ALLOWED_PHASES = {"X", "i", "M"}
_REQUIRED_KEYS = {"name", "ph", "cat", "ts", "pid", "tid"}


def validate_lines(lines: Iterable[str]) -> List[str]:
    """Validate trace lines; returns a list of error strings (empty = ok)."""
    errors: List[str] = []
    last_ts = None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as error:
            errors.append(f"line {lineno}: not valid JSON ({error})")
            continue
        if not isinstance(event, dict):
            errors.append(f"line {lineno}: not a JSON object")
            continue
        missing = _REQUIRED_KEYS - set(event)
        if missing:
            errors.append(f"line {lineno}: missing keys {sorted(missing)}")
            continue
        phase = event["ph"]
        if phase not in _ALLOWED_PHASES:
            errors.append(f"line {lineno}: unknown phase {phase!r}")
            continue
        name = event["name"]
        if phase == "M":
            if name not in _METADATA_NAMES:
                errors.append(f"line {lineno}: unknown metadata event {name!r}")
            continue
        if name not in KNOWN_EVENTS:
            errors.append(f"line {lineno}: unknown event type {name!r}")
            continue
        category = event["cat"]
        if category not in ALL_CATEGORIES:
            errors.append(f"line {lineno}: unknown category {category!r}")
        elif KNOWN_EVENTS[name] != category:
            errors.append(
                f"line {lineno}: event {name!r} has category {category!r}, "
                f"expected {KNOWN_EVENTS[name]!r}"
            )
        ts = event["ts"]
        if not isinstance(ts, (int, float)) or ts < 0:
            errors.append(f"line {lineno}: bad timestamp {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            errors.append(
                f"line {lineno}: non-monotonic timestamp {ts} < {last_ts}"
            )
        last_ts = ts
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"line {lineno}: span with bad dur {dur!r}")
    return errors


def validate_trace(path_or_lines: Union[str, Iterable[str]]) -> List[str]:
    """Validate a trace file (by path) or an iterable of JSONL lines."""
    if isinstance(path_or_lines, (str, bytes)) or hasattr(
        path_or_lines, "__fspath__"
    ):
        with open(path_or_lines) as handle:
            return validate_lines(handle)
    return validate_lines(path_or_lines)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: python -m repro.obs.schema TRACE.jsonl", file=sys.stderr)
        return 2
    errors = validate_trace(argv[0])
    if errors:
        for error in errors:
            print(error, file=sys.stderr)
        print(f"{argv[0]}: INVALID ({len(errors)} errors)", file=sys.stderr)
        return 1
    print(f"{argv[0]}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
