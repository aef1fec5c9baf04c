"""Shared SWIM workload runs.

Table I, Table II, Fig 5, Fig 6, Fig 7, and the IV-C5 ablation all
measure the *same* three runs of the 200-job SWIM workload (HDFS, Ignem,
HDFS-Inputs-in-RAM).  This module runs them once per (mode, seed,
num_jobs, policy) and caches the outcome so the whole experiment family
shares identical inputs, exactly as the paper's one-workload/many-
metrics evaluation does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cluster import Cluster, build_paper_testbed
from ..core.config import IgnemConfig
from ..mapreduce.spec import EngineConfig, JobSpec
from ..metrics.collector import MetricsCollector
from ..obs import ObservabilityConfig
from ..storage.device import GB
from ..workloads import swim

#: SWIM jobs are synthetic IO movers: almost no per-byte compute, which
#: is what makes Table II's RAM mapper floor ~0.28s.
SWIM_ENGINE = EngineConfig(output_replication=1)
SWIM_MAP_CPU_FACTOR = 0.25
SWIM_REDUCE_CPU_FACTOR = 0.5


@dataclass
class SwimRun:
    """Everything one SWIM run leaves behind."""

    mode: str
    cluster: Cluster
    jobs: List[swim.SwimJob]
    collector: MetricsCollector
    input_paths_by_job: Dict[str, Tuple[str, ...]]


_CACHE: Dict[Tuple, SwimRun] = {}


def clear_cache() -> None:
    _CACHE.clear()


def prepare_swim_cluster(
    mode: str,
    seed: int = 0,
    num_jobs: int = 200,
    policy: str = "smallest-job-first",
    ignem_config: Optional[IgnemConfig] = None,
    observability: Optional[ObservabilityConfig] = None,
) -> Tuple[Cluster, List[swim.SwimJob], List[JobSpec], List[float]]:
    """Build the SWIM testbed without running it.

    Returns ``(cluster, trace jobs, job specs, arrival times)`` — the
    exact pre-run state :func:`run_swim` uses, also reusable by callers
    that drive the run themselves (perfbench's swim member).
    """
    if mode not in ("hdfs", "ignem", "ram"):
        raise ValueError(f"unknown mode {mode!r}")
    overrides = {}
    if observability is not None:
        overrides["observability"] = observability
    cluster = build_paper_testbed(
        seed=seed, engine_config=SWIM_ENGINE, **overrides
    )
    if mode == "ignem":
        config = ignem_config or IgnemConfig(buffer_capacity=16 * GB, policy=policy)
        cluster.enable_ignem(config)

    generator = swim.SwimGenerator(seed=seed)
    jobs = generator.generate(num_jobs=num_jobs)
    swim.materialize(cluster, jobs)
    if mode == "ram":
        cluster.pin_all_inputs()

    specs, arrivals = swim.to_specs(jobs)
    specs = [
        _with_cpu_factors(spec, SWIM_MAP_CPU_FACTOR, SWIM_REDUCE_CPU_FACTOR)
        for spec in specs
    ]
    return cluster, jobs, specs, arrivals


def run_swim(
    mode: str,
    seed: int = 0,
    num_jobs: int = 200,
    policy: str = "smallest-job-first",
    ignem_config: Optional[IgnemConfig] = None,
    observability: Optional[ObservabilityConfig] = None,
) -> SwimRun:
    """Run the SWIM workload under one configuration (cached)."""
    key = (mode, seed, num_jobs, policy, ignem_config, observability)
    if key in _CACHE:
        return _CACHE[key]

    cluster, jobs, specs, arrivals = prepare_swim_cluster(
        mode,
        seed=seed,
        num_jobs=num_jobs,
        policy=policy,
        ignem_config=ignem_config,
        observability=observability,
    )
    done = cluster.engine.run_workload(specs, arrivals, implicit_eviction=True)
    cluster.run(until=done)

    input_paths_by_job = {
        job.job_id: tuple(job.spec.input_paths) for job in cluster.engine.jobs
    }
    run = SwimRun(
        mode=mode,
        cluster=cluster,
        jobs=jobs,
        collector=cluster.collector,
        input_paths_by_job=input_paths_by_job,
    )
    _CACHE[key] = run
    return run


def _with_cpu_factors(spec: JobSpec, map_factor: float, reduce_factor: float) -> JobSpec:
    return JobSpec(
        name=spec.name,
        input_paths=spec.input_paths,
        shuffle_bytes=spec.shuffle_bytes,
        output_bytes=spec.output_bytes,
        num_reduces=spec.num_reduces,
        map_cpu_factor=map_factor,
        reduce_cpu_factor=reduce_factor,
    )
