"""Observability subsystem: structured tracing + metrics registry.

Public surface:

* :class:`~repro.obs.config.ObservabilityConfig` — per-cluster switch;
* :class:`~repro.obs.registry.MetricsRegistry` (+ Counter/Gauge/Histogram);
* :class:`~repro.obs.trace.Tracer` / :class:`~repro.obs.trace.TraceReader`;
* :class:`~repro.obs.api.Observability` — the facade clusters carry;
* :mod:`repro.obs.schema` — the trace validator CI runs.
"""

from .api import Observability
from .config import ObservabilityConfig
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .schema import ALL_CATEGORIES, KNOWN_EVENTS, validate_trace
from .trace import Tracer, TraceReader

__all__ = [
    "ALL_CATEGORIES",
    "DEFAULT_BUCKETS",
    "KNOWN_EVENTS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "ObservabilityConfig",
    "TraceReader",
    "Tracer",
    "validate_trace",
]
