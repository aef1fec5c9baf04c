"""Workload generators: SWIM trace, sort, wordcount, the synthetic
Google cluster trace, the trace-scale replay, and the interactive
serving workload."""

from .google_trace import GoogleTraceGenerator, GoogleTraceJob, TaskUsageInterval
from .scale import (
    ScaleConfig,
    ScaleResult,
    build_scale_cluster,
    format_scale_result,
    run_scale_replay,
)
from .serve import (
    ServeConfig,
    ServeRequest,
    ServeResult,
    ZipfSampler,
    diurnal_rate,
    format_serve_result,
    generate_requests,
    run_serve,
)
from .sort import SORT_INPUT_BYTES, SORT_INPUT_PATH, make_sort_spec
from .swim import SwimGenerator, SwimJob, size_bin, to_specs
from .wordcount import DEFAULT_SIZES_GB, make_wordcount_spec, wordcount_path

__all__ = [
    "DEFAULT_SIZES_GB",
    "GoogleTraceGenerator",
    "GoogleTraceJob",
    "SORT_INPUT_BYTES",
    "SORT_INPUT_PATH",
    "ScaleConfig",
    "ScaleResult",
    "ServeConfig",
    "ServeRequest",
    "ServeResult",
    "SwimGenerator",
    "SwimJob",
    "TaskUsageInterval",
    "ZipfSampler",
    "build_scale_cluster",
    "diurnal_rate",
    "format_scale_result",
    "format_serve_result",
    "generate_requests",
    "make_sort_spec",
    "make_wordcount_spec",
    "run_scale_replay",
    "run_serve",
    "size_bin",
    "to_specs",
    "wordcount_path",
]
