"""Greedy deterministic minimization of failing DST scenarios.

Given a scenario and a predicate ("does this scenario still fail?"),
the shrinker repeatedly tries structurally smaller variants and keeps
any that still fail, until a fixed point: drop jobs (newest first),
drop fault events one at a time, shrink the cluster, and switch off
the HA pair.  Every transformation is a pure function of the frozen
:class:`Scenario`, and candidates are tried in a fixed order, so the
same failing input always shrinks to the byte-identical minimal
scenario — which is what makes the serialized corpus reviewable.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator, List, Optional, Tuple

from .scenario import Scenario

#: Safety valve: predicate evaluations per shrink (each runs a full
#: simulation, so the budget matters more than minimality in the tail).
MAX_ATTEMPTS = 200


def _without_job(scenario: Scenario, index: int) -> Optional[Scenario]:
    if len(scenario.jobs) <= 1:
        return None
    jobs = scenario.jobs[:index] + scenario.jobs[index + 1 :]
    return dataclasses.replace(scenario, jobs=jobs)


def _without_fault(scenario: Scenario, index: int) -> Optional[Scenario]:
    if not scenario.faults:
        return None
    faults = scenario.faults[:index] + scenario.faults[index + 1 :]
    return dataclasses.replace(scenario, faults=faults)


def _with_fewer_nodes(scenario: Scenario) -> Optional[Scenario]:
    cluster = scenario.cluster
    if cluster.num_nodes <= 2:
        return None
    num_nodes = cluster.num_nodes - 1
    # Node names are always node0..nodeN; faults aimed at the removed
    # tail node would be no-ops, so drop them with it.
    surviving = {f"node{i}" for i in range(num_nodes)}
    faults = tuple(
        event
        for event in scenario.faults
        if event.target is None or event.target in surviving
    )
    return dataclasses.replace(
        scenario,
        cluster=dataclasses.replace(
            cluster,
            num_nodes=num_nodes,
            replication=min(cluster.replication, num_nodes),
        ),
        faults=faults,
    )


def _without_ha(scenario: Scenario) -> Optional[Scenario]:
    if not scenario.ha:
        return None
    return dataclasses.replace(scenario, ha=False)


def _without_serve(scenario: Scenario) -> Optional[Scenario]:
    if scenario.serve is None:
        return None
    return dataclasses.replace(scenario, serve=None)


def _candidates(scenario: Scenario) -> Iterator[Scenario]:
    """Structurally smaller variants, most-aggressive-first per axis."""
    # Interactive traffic first: it is a whole subsystem, so a failure
    # that survives without it shrinks fastest by dropping it whole.
    candidate = _without_serve(scenario)
    if candidate is not None:
        yield candidate
    # Jobs, newest first: late arrivals are most often incidental.
    for index in range(len(scenario.jobs) - 1, -1, -1):
        candidate = _without_job(scenario, index)
        if candidate is not None:
            yield candidate
    for index in range(len(scenario.faults) - 1, -1, -1):
        candidate = _without_fault(scenario, index)
        if candidate is not None:
            yield candidate
    candidate = _with_fewer_nodes(scenario)
    if candidate is not None:
        yield candidate
    candidate = _without_ha(scenario)
    if candidate is not None:
        yield candidate


def _size(scenario: Scenario) -> Tuple[int, int, int, int, int]:
    """Shrink-order metric; every candidate strictly reduces it."""
    return (
        int(scenario.serve is not None),
        len(scenario.jobs),
        len(scenario.faults),
        scenario.cluster.num_nodes,
        int(scenario.ha),
    )


def shrink_scenario(
    scenario: Scenario,
    still_fails: Callable[[Scenario], bool],
    max_attempts: int = MAX_ATTEMPTS,
) -> Tuple[Scenario, int]:
    """Minimize a failing scenario; returns (minimal scenario, attempts).

    ``still_fails`` must return True for the input scenario's failure
    mode (the caller decides what "same failure" means — typically "any
    oracle fires").  The returned scenario still satisfies it.
    """
    current = scenario
    attempts = 0
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for candidate in _candidates(current):
            if attempts >= max_attempts:
                break
            assert _size(candidate) < _size(current)
            attempts += 1
            try:
                failed = still_fails(candidate)
            except Exception:
                # A candidate that crashes the harness is a different
                # bug; keep shrinking the one we were asked about.
                failed = False
            if failed:
                current = candidate
                progress = True
                break  # restart candidate enumeration from the smaller scenario
    return current, attempts


def describe_shrink(original: Scenario, shrunk: Scenario) -> str:
    parts: List[str] = []
    for label, before, after in (
        ("jobs", len(original.jobs), len(shrunk.jobs)),
        ("faults", len(original.faults), len(shrunk.faults)),
        ("nodes", original.cluster.num_nodes, shrunk.cluster.num_nodes),
    ):
        if before != after:
            parts.append(f"{label} {before}->{after}")
    if original.serve is not None and shrunk.serve is None:
        parts.append("serve dropped")
    if original.ha and not shrunk.ha:
        parts.append("ha dropped")
    return ", ".join(parts) if parts else "already minimal"
