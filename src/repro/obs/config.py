"""Observability configuration, carried on the cluster config."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ObservabilityConfig:
    """How (and whether) a cluster run is instrumented.

    Tracing is on exactly when ``trace_path`` is set.  Off by default:
    the clean path takes no tracer allocations, no per-event callbacks,
    and produces bit-identical outputs to a build without the
    observability layer.  The shared
    :class:`~repro.obs.registry.MetricsRegistry` always exists (counter
    bumps are a few nanoseconds and never touch simulation time), but
    tracing, span callbacks, and snapshot/trace files are all opt-in.

    Parameters
    ----------
    sim_events:
        Also trace the simulation kernel (event dispatches and process
        wakeups, the "sim" category).  Every application layer is always
        traced; the kernel scales with raw event-dispatch volume, so it
        is opt-in and meant for debugging the simulator itself.
    trace_path:
        When set, tracing is on, and :meth:`repro.cluster.Cluster.run`
        writes the JSONL trace here after the run.
    metrics_path:
        When set, :meth:`repro.cluster.Cluster.run` writes the metrics
        snapshot (JSON) here after the run.
    """

    sim_events: bool = False
    trace_path: Optional[str] = None
    metrics_path: Optional[str] = None
