"""Traced experiment runs — the ``python -m repro trace`` implementation.

A traced run executes the SWIM workload behind an experiment with
:class:`~repro.obs.ObservabilityConfig` enabled, writes one Chrome
``trace_event``-compatible JSONL trace plus one metrics snapshot per
(experiment, mode), and validates every trace against the shipped
schema (:mod:`repro.obs.schema`) before reporting success.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from ..obs import ObservabilityConfig, validate_trace
from .swim_runs import run_swim

PathLike = Union[str, pathlib.Path]

#: Experiments that can be traced, mapped to the SWIM modes they measure.
#: ``swim`` / ``swim-<mode>`` trace the shared workload directly; the
#: table/figure names trace exactly the runs that experiment consumes.
TRACEABLE: Dict[str, Tuple[str, ...]] = {
    "swim": ("hdfs", "ignem", "ram"),
    "swim-hdfs": ("hdfs",),
    "swim-ignem": ("ignem",),
    "swim-ram": ("ram",),
    "table1": ("hdfs", "ignem", "ram"),
    "table2": ("hdfs", "ignem", "ram"),
    "fig5": ("hdfs", "ignem", "ram"),
    "fig6": ("hdfs", "ignem"),
    "fig7": ("ignem",),
}


def traceable_experiments() -> List[str]:
    return sorted(TRACEABLE)


@dataclass
class TracedRun:
    """Outcome of one traced (experiment, mode) execution."""

    experiment: str
    mode: str
    trace_path: pathlib.Path
    metrics_path: pathlib.Path
    num_events: int
    schema_errors: List[str]

    @property
    def ok(self) -> bool:
        return not self.schema_errors

    def format(self) -> str:
        status = "ok" if self.ok else f"{len(self.schema_errors)} schema errors"
        return (
            f"{self.experiment}/{self.mode}: {self.num_events} events -> "
            f"{self.trace_path} ({status})"
        )


def run_traced(
    experiment: str,
    out_dir: PathLike = "results",
    seed: int = 0,
    num_jobs: int = 40,
    sim_events: bool = False,
) -> List[TracedRun]:
    """Trace the SWIM runs behind ``experiment`` (see :data:`TRACEABLE`).

    ``num_jobs`` defaults to a short 40-job workload — traces of the full
    200-job run are large; raise it when the full workload matters.
    ``sim_events`` adds the kernel's "sim" category (very verbose).
    """
    if experiment not in TRACEABLE:
        raise KeyError(
            f"experiment {experiment!r} is not traceable; choose from "
            f"{traceable_experiments()}"
        )
    out_path = pathlib.Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)

    results: List[TracedRun] = []
    for mode in TRACEABLE[experiment]:
        trace_path = out_path / f"{experiment}_{mode}.trace.jsonl"
        metrics_path = out_path / f"{experiment}_{mode}.metrics.json"
        config = ObservabilityConfig(
            sim_events=sim_events,
            trace_path=str(trace_path),
            metrics_path=str(metrics_path),
        )
        run_swim(
            mode, seed=seed, num_jobs=num_jobs, observability=config
        )
        errors = validate_trace(trace_path)
        num_events = sum(
            1 for line in trace_path.read_text().splitlines() if line.strip()
        )
        results.append(
            TracedRun(
                experiment=experiment,
                mode=mode,
                trace_path=trace_path,
                metrics_path=metrics_path,
                num_events=num_events,
                schema_errors=errors,
            )
        )
    return results
