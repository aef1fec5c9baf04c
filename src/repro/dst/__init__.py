"""Deterministic simulation testing (DST) for the Ignem reproduction.

Four pieces, layered:

* :mod:`~repro.dst.scenario` — seeded :class:`ScenarioGenerator`
  sampling cluster configs x workload mixes x fault schedules into
  self-describing, canonically-serializable :class:`Scenario` objects,
  and :func:`swim_scenario`, the SWIM chaos family behind
  ``python -m repro chaos``;
* :mod:`~repro.dst.model` — an executable reference model of the Ignem
  master/slave contract, checked differentially against the real system
  at every command boundary and, after the run, against the collector's
  migration and eviction records;
* :mod:`~repro.dst.oracles` — the one table of end-of-run invariant
  oracles (do-not-harm, buffer cap, end-state emptiness, post-crash
  silence, conservation, locality index, replication, data loss,
  tenant fairness);
* :mod:`~repro.dst.shrinker` / :mod:`~repro.dst.runner` — greedy
  deterministic minimization of failing scenarios and the fuzz/replay
  driver behind ``python -m repro dst``.
"""

from .harness import (
    SABOTAGE_MODES,
    ScenarioResult,
    apply_sabotage,
    build_cluster,
    run_scenario,
    serve_requests,
)
from .model import DifferentialChecker, reference_priority
from .oracles import ALL_ORACLES, OracleContext, OracleReport, run_oracles
from .runner import DstReport, DstRunner, corpus_paths
from .scenario import (
    Scenario,
    ScenarioGenerator,
    ScenarioJob,
    ServeTraffic,
    swim_scenario,
)
from .shrinker import shrink_scenario

__all__ = [
    "ALL_ORACLES",
    "SABOTAGE_MODES",
    "DifferentialChecker",
    "DstReport",
    "DstRunner",
    "OracleContext",
    "OracleReport",
    "Scenario",
    "ScenarioGenerator",
    "ScenarioJob",
    "ScenarioResult",
    "ServeTraffic",
    "apply_sabotage",
    "build_cluster",
    "corpus_paths",
    "reference_priority",
    "run_oracles",
    "run_scenario",
    "serve_requests",
    "shrink_scenario",
    "swim_scenario",
]
