"""Kernel-boundary audit: only the sim kernel touches its event queue.

Every event must enter the queue through a kernel primitive
(``Event.succeed``/``fail``, ``Timeout``, ``Environment.timeout_at``,
``pooled_timeout``, ``schedule``, a ``Process`` resume), so a change to
how the kernel orders or dispatches events — a wall-clock environment,
a seeded tie order — has one place to change.  Outside
``src/repro/sim/`` the queue (``_queue``) and the event-id counter
(``_eid``) are off limits; ``Environment.events_scheduled`` reads the
count.  Processing an event (marking it processed and dropping its
callback list) is the run loop's job, or ``Environment.fire``'s for an
event processed inside the current dispatch.  This test convicts
regressions statically.
"""

import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: The package allowed to read and write the kernel's internals.
KERNEL = SRC / "sim"

PRIVATE = re.compile(r"\._(queue|eid)\b")

#: Marking an event processed, which only the run loop and
#: ``Environment.fire`` may do.
PROCESSES = re.compile(r"\._processed\s*=\s*True\b|\.callbacks\s*=\s*None\b")


def offenders(pattern):
    """``path:line: text`` of every line outside the kernel matching
    ``pattern``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if KERNEL in path.parents:
            continue
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            if pattern.search(line):
                found.append(f"{path.relative_to(SRC)}:{number}: {line.strip()}")
    return found


def test_only_the_kernel_touches_its_queue():
    found = offenders(PRIVATE)
    assert not found, "kernel internals used outside repro.sim:\n" + "\n".join(found)


def test_only_the_kernel_processes_events():
    found = offenders(PROCESSES)
    assert not found, "events processed outside repro.sim:\n" + "\n".join(found)


def test_events_scheduled_counts_every_schedule():
    from repro.sim import Environment

    env = Environment()
    assert env.events_scheduled == 0
    env.timeout(1.0)
    env.timeout_at(2.0)
    env.pooled_timeout(3.0)
    env.event().succeed()
    assert env.events_scheduled == 4
    env.run()
    assert env.events_scheduled == 4


def test_events_scheduled_is_read_only():
    from repro.sim import Environment

    env = Environment()
    with pytest.raises(AttributeError):
        env.events_scheduled = 10
