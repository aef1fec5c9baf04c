"""`repro heal`: a scripted self-healing replication demo.

Chaos seed ``seed`` (:func:`~repro.dst.scenario.swim_scenario`) with
its random fault plan replaced by three scripted membership changes: a
permanent ``kill`` mid-flight, a fresh ``join``, and a graceful
``decommission``.  The replication monitor repairs every
under-replicated block over pipelined copy chains, the drained node is
released only once its blocks are safe elsewhere, and the DST harness
judges the drained run with its full oracle suite.

``disable_repair=True`` is the contrast mode: the ``disable-repair``
sabotage turns the monitor off, the same schedule leaves blocks
permanently under-replicated, and the replication oracles convict the
run — the demo's own sabotage self-test.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

from ..dst.harness import ScenarioResult, run_scenario
from ..dst.scenario import Scenario, swim_horizon, swim_scenario
from .schedule import FaultEvent

#: Schedule shape, as fractions of the workload horizon.
_KILL_AT = 0.25
_JOIN_AT = 0.40
_DECOMMISSION_AT = 0.55


def heal_scenario(seed: int = 0, num_jobs: int = 40) -> Scenario:
    """The SWIM scenario with the scripted kill/join/decommission plan:
    kill the first node, join a fresh one, decommission the last."""
    scenario = swim_scenario(seed, num_jobs)
    horizon = swim_horizon(scenario.jobs)
    num_nodes = scenario.cluster.num_nodes
    return dataclasses.replace(
        scenario,
        faults=(
            FaultEvent(_KILL_AT * horizon, "kill", "node0"),
            FaultEvent(_JOIN_AT * horizon, "join", f"node{num_nodes}"),
            FaultEvent(
                _DECOMMISSION_AT * horizon,
                "decommission",
                f"node{num_nodes - 1}",
            ),
        ),
    )


def run_heal_demo(
    seed: int = 0, num_jobs: int = 40, disable_repair: bool = False
) -> ScenarioResult:
    """Run the scripted kill/join/decommission demo and judge it."""
    return run_scenario(
        heal_scenario(seed, num_jobs),
        sabotage="disable-repair" if disable_repair else None,
    )


def heal_payload(result: ScenarioResult) -> Dict[str, object]:
    """``heal.json``: the scripted faults, the run's stats, and every
    violation."""
    return {
        "seed": result.scenario.cluster.seed,
        "faults": {event.kind: event.target for event in result.scenario.faults},
        **result.stats,
        "violations": [
            f"[{oracle}] {message}" for oracle, message in result.violations
        ],
    }


def format_heal_result(result: ScenarioResult) -> str:
    """Human-readable heal demo report."""
    stats = result.stats
    mode = "on" if stats["repair_enabled"] else "OFF (contrast mode)"
    faults = ", ".join(
        f"{event.kind} {event.target!r} at t={event.time:.1f}"
        for event in result.scenario.faults
    )
    lines = [
        "self-healing replication demo",
        f"  repair monitor: {mode}",
        f"  faults: {faults}",
        f"  jobs: {stats['jobs_completed']}/{stats['jobs_total']} completed, "
        f"{stats['jobs_failed']} failed",
        f"  repair copies: {stats['repair_copies']} "
        f"({stats['repair_retries']} retries), "
        f"excess dropped: {stats['repair_excess_dropped']}, "
        f"rebalance moves: {stats['rebalance_moves']}",
        f"  decommissions completed: {stats['decommissions_completed']}",
        f"  end state: {stats['under_replicated']} under-replicated, "
        f"{stats['missing_blocks']} missing block(s) "
        f"at t={stats['sim_time']:.1f}",
    ]
    if result.violations:
        lines.append(result.format_violations())
    lines.append(
        "verdict: "
        + ("PASS" if result.ok else f"FAIL ({len(result.violations)} violation(s))")
    )
    return "\n".join(lines)
