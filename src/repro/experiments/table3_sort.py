"""Table III: the standalone 40GB sort job (paper Section IV-D)."""

from __future__ import annotations

from typing import Dict, Optional

from ..cluster import build_paper_testbed
from ..core.config import IgnemConfig
from ..metrics.collector import MetricsCollector
from ..workloads.sort import SORT_INPUT_BYTES, make_sort_spec, materialize
from .common import ComparisonTable, make_comparison

PAPER_TABLE3 = {"hdfs": 147.0, "ignem": 114.0, "ram": 75.0}


def run_sort_once(
    mode: str,
    seed: int = 0,
    input_bytes: float = SORT_INPUT_BYTES,
    ignem_config: Optional[IgnemConfig] = None,
) -> MetricsCollector:
    """One sort run under one configuration; returns its collector, whose
    one job record is the sort."""
    if mode not in ("hdfs", "ignem", "ram"):
        raise ValueError(f"unknown mode {mode!r}")
    cluster = build_paper_testbed(
        seed=seed, ignem=(mode == "ignem"), ignem_config=ignem_config
    )
    materialize(cluster, input_bytes)
    if mode == "ram":
        cluster.pin_all_inputs()
    cluster.engine.submit_job(make_sort_spec(input_bytes))
    cluster.run()
    return cluster.collector


def table3_sort(seed: int = 0, input_bytes: float = SORT_INPUT_BYTES) -> ComparisonTable:
    """Table III: sort duration under the three configurations."""
    values: Dict[str, float] = {
        mode: run_sort_once(mode, seed=seed, input_bytes=input_bytes).jobs[0].duration
        for mode in ("hdfs", "ignem", "ram")
    }
    return make_comparison(
        "Table III — sort (40GB) job duration",
        "s",
        values,
        paper_values=PAPER_TABLE3,
    )
