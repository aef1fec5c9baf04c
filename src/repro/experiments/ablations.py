"""Ablations of Ignem's design choices (paper Section III) and studies
beyond the paper (Sections IV-E and V).

Each study runs one knob at two or more settings and returns
``(text, payload)``: the formatted rows, and the numbers behind them
keyed by setting.  The ablations run a 120-job SWIM trace or a 20GB
sort; the IV-C5 priority ablation shares Table I's runs and lives in
:mod:`repro.experiments.swim_tables`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..baselines.hypothetical import ignem_memory_timelines, mean_footprint
from ..cluster import build_paper_testbed
from ..core.config import IgnemConfig
from ..mapreduce.spec import EngineConfig, JobSpec
from ..storage.device import GB, MB
from ..workloads import swim
from .swim_runs import SWIM_ENGINE, prepare_swim_cluster
from .table3_sort import run_sort_once

Study = Tuple[str, Dict]

#: SWIM jobs per ablation run.
NUM_JOBS = 120
#: Input of the sort-based studies.
SORT_BYTES = 20 * GB


def _swim(mode: str, seed: int, config: Optional[IgnemConfig] = None):
    """One SWIM run's collector, the steps of ``run_swim`` without its
    cache: no other experiment reads these runs, so none outlives its study."""
    cluster, _, specs, arrivals = prepare_swim_cluster(
        mode, seed=seed, num_jobs=NUM_JOBS, ignem_config=config
    )
    cluster.run(until=cluster.engine.run_workload(specs, arrivals, implicit_eviction=True))
    return cluster.collector


def _sort_ignem(seed: int, config: IgnemConfig):
    return run_sort_once("ignem", seed=seed, input_bytes=SORT_BYTES, ignem_config=config)


def _swim_testbed(seed: int, ignem: bool):
    """The SWIM testbed without Table I's CPU factors or 16GB buffer:
    ``(cluster, specs, arrivals)``, inputs materialized."""
    cluster = build_paper_testbed(seed=seed, ignem=ignem, engine_config=SWIM_ENGINE)
    jobs = swim.SwimGenerator(seed=seed).generate(num_jobs=NUM_JOBS)
    swim.materialize(cluster, jobs)
    return (cluster, *swim.to_specs(jobs))


def _count(records, reason: str) -> int:
    return sum(1 for record in records if record.reason == reason)


def ablation_do_not_harm(seed: int = 0) -> Study:
    """III-A3: never evict migrated-but-unread blocks, against
    evict-for-newer, in a deliberately tiny 256MB buffer."""
    stats = {}
    for name, rule in (("do-not-harm", True), ("evict-for-newer", False)):
        collector = _swim(
            "ignem", seed, IgnemConfig(buffer_capacity=256 * MB, do_not_harm=rule)
        )
        stats[name] = {
            "mean_job": collector.mean_job_duration(),
            "preempted": _count(collector.evictions, "preempted"),
            "migrated": len(collector.completed_migrations()),
        }
    lines = ["Ablation — Do-not-harm rule (256MB migration buffer)"]
    for name, s in stats.items():
        lines.append(
            f"{name:<16} mean_job={s['mean_job']:6.2f}s "
            f"migrations={s['migrated']:4d} preemptions={s['preempted']:3d}"
        )
    return "\n".join(lines), stats


def ablation_implicit_eviction(seed: int = 0) -> Study:
    """III-A4/III-B2: drop a job's reference the moment it reads the
    block, against holding it until the job's completion-time evict."""
    stats = {}
    for name, implicit in (("implicit", True), ("explicit-only", False)):
        cluster, specs, arrivals = _swim_testbed(seed, ignem=True)
        cluster.run(
            until=cluster.engine.run_workload(
                specs, arrivals, implicit_eviction=implicit
            )
        )
        stats[name] = {
            "mean_job": cluster.collector.mean_job_duration(),
            "mean_footprint": mean_footprint(ignem_memory_timelines(cluster)),
            "implicit_evictions": _count(cluster.collector.evictions, "implicit"),
        }
    lines = ["Ablation — implicit vs explicit-only eviction (SWIM, 120 jobs)"]
    for name, s in stats.items():
        lines.append(
            f"{name:<14} mean_job={s['mean_job']:6.2f}s "
            f"mean-footprint={s['mean_footprint'] / MB:7.0f}MB "
            f"implicit-evictions={s['implicit_evictions']}"
        )
    return "\n".join(lines), stats


def ablation_migration_concurrency(seed: int = 0) -> Study:
    """III-A1: one migration at a time per slave, against 2 and 4
    concurrent streams contending on the HDD."""
    durations = {
        str(n): _sort_ignem(seed, IgnemConfig(migration_concurrency=n)).jobs[0].duration
        for n in (1, 2, 4)
    }
    lines = ["Ablation — concurrent migrations per slave (20GB sort)"]
    for n, duration in durations.items():
        lines.append(f"concurrency={n}: {duration:7.1f}s")
    return "\n".join(lines), durations


def ablation_replica_choice(seed: int = 0) -> Study:
    """III-A2: migrate one randomly chosen replica, against all three."""
    stats = {}
    for replicas in ("1", "3"):
        collector = _swim("ignem", seed, IgnemConfig(replicas_to_migrate=int(replicas)))
        stats[replicas] = {
            "mean_job": collector.mean_job_duration(),
            "migrated_bytes": sum(m.nbytes for m in collector.completed_migrations()),
            "peak_memory": max(
                (s.migrated_bytes for s in collector.memory_samples), default=0.0
            ),
        }
    lines = ["Ablation — replicas migrated per block (SWIM, 120 jobs)"]
    for replicas, s in stats.items():
        lines.append(
            f"replicas={replicas}: mean_job={s['mean_job']:6.2f}s "
            f"disk-bytes-migrated={s['migrated_bytes'] / GB:6.1f}GB "
            f"peak-node-memory={s['peak_memory'] / GB:5.2f}GB"
        )
    return "\n".join(lines), stats


def ablation_reverse_order(seed: int = 0) -> Study:
    """Tail-first migration within a job, against scan order, which
    races the mappers over the same prefix (DESIGN.md)."""
    stats = {}
    for name, reverse in (("tail-first", True), ("scan-order", False)):
        collector = _sort_ignem(seed, IgnemConfig(reverse_within_job=reverse))
        migrated = {m.block_id for m in collector.completed_migrations()}
        ram_read = {r.block_id for r in collector.block_reads if r.source == "ram"}
        stats[name] = {
            "duration": collector.jobs[0].duration,
            "migrated": len(migrated),
            "wasted": len(migrated - ram_read),
        }
    lines = ["Ablation — within-job migration order (20GB sort)"]
    for name, s in stats.items():
        lines.append(
            f"{name:<10} duration={s['duration']:7.1f}s "
            f"migrated={s['migrated']:4d} wasted={s['wasted']:4d}"
        )
    return "\n".join(lines), stats


def extension_benefit_aware(seed: int = 0) -> Study:
    """IV-E: the three migration priority policies; mean SWIM job
    duration under each, and under plain HDFS."""
    durations = {"hdfs": _swim("hdfs", seed).mean_job_duration()}
    for policy in ("fifo", "smallest-job-first", "benefit-aware"):
        durations[policy] = _swim("ignem", seed, IgnemConfig(policy=policy)).mean_job_duration()
    baseline = durations["hdfs"]
    lines = [
        "Extension IV-E — migration priority policies (SWIM, 120 jobs)",
        f"{'HDFS baseline':<20} {baseline:6.2f}s",
    ]
    for policy, duration in list(durations.items())[1:]:
        lines.append(
            f"{policy:<20} {duration:6.2f}s "
            f"({(baseline - duration) / baseline:+.1%} vs HDFS)"
        )
    return "\n".join(lines), durations


def extension_busy_throttle(seed: int = 0) -> Study:
    """Section V (Aqueduct): pause migration while the disk is busy,
    against Ignem's work-conserving migration."""
    stats = {}
    for name, threshold in (("work-conserving", None), ("throttle@8", 8), ("throttle@4", 4)):
        collector = _sort_ignem(seed, IgnemConfig(busy_threshold=threshold))
        disk_reads = [r.duration for r in collector.block_reads if r.source != "ram"]
        stats[name] = {
            "duration": collector.jobs[0].duration,
            "migrated": len(collector.completed_migrations()),
            "mean_disk_read": sum(disk_reads) / len(disk_reads) if disk_reads else 0.0,
        }
    lines = ["Extension — Aqueduct-style migration throttle (20GB sort)"]
    for name, s in stats.items():
        lines.append(
            f"{name:<16} duration={s['duration']:7.1f}s "
            f"migrated={s['migrated']:4d} "
            f"mean-disk-read={s['mean_disk_read']:5.2f}s"
        )
    return "\n".join(lines), stats


def _sample_busy_share(env, disk, window: float, samples: list):
    """Append ``disk``'s busy share of each ``window`` seconds."""
    last = disk.busy_time
    while True:
        yield env.timeout(window)
        busy = disk.busy_time
        samples.append((busy - last) / window)
        last = busy


def extension_cluster_utilization(seed: int = 0) -> Study:
    """Fig 4's residual-bandwidth claim on the simulated testbed: disk
    utilization in 30s windows while plain HDFS runs SWIM."""
    cluster, specs, arrivals = _swim_testbed(seed, ignem=False)
    per_disk = []
    for datanode in cluster.datanodes.values():
        samples: list = []
        per_disk.append(samples)
        cluster.env.process(
            _sample_busy_share(cluster.env, datanode.disk, 30.0, samples),
            name=f"util-probe-{datanode.disk.name}",
        )
    cluster.run(until=cluster.engine.run_workload(specs, arrivals))
    means = [sum(s) / len(s) for s in per_disk if s]
    stats = {
        "horizon": cluster.env.now,
        "mean": sum(means) / len(means),
        "peak": max(max(s) for s in per_disk if s),
    }
    text = "\n".join(
        [
            "Extension — disk utilization of the simulated testbed under SWIM",
            f"workload horizon: {stats['horizon']:.0f}s",
            f"mean disk utilization: {stats['mean']:.1%} "
            f"(the Google trace's figure was ~3%)",
            f"peak 30s-window utilization on any disk: {stats['peak']:.1%}",
        ]
    )
    return text, stats


def extension_speculation(seed: int = 0) -> Study:
    """Speculative execution against Ignem, a 4GB scan with one disk at
    1/20th speed: speculation treats the straggler, Ignem its read."""
    stats = {}
    for name, ignem, speculative in (
        ("hdfs", False, False),
        ("hdfs+spec", False, True),
        ("ignem", True, False),
        ("ignem+spec", True, True),
    ):
        engine = EngineConfig(speculative_execution=speculative, speculative_slowdown=1.4)
        # Cluster seed 6 at seed 0: the placement the study was set up on.
        cluster = build_paper_testbed(seed=seed + 6, ignem=ignem, engine_config=engine)
        cluster.client.create_file("/in", 4 * GB)
        sick = cluster.datanodes["node2"].disk
        sick.bandwidth = sick.bandwidth / 20
        job = cluster.engine.submit_job(JobSpec("scan", ("/in",), map_cpu_factor=2.0))
        cluster.run()
        stats[name] = {"duration": job.duration, "attempts": job.speculative_attempts}
    lines = ["Extension — speculation vs Ignem with one degraded disk (4GB scan)"]
    for name, s in stats.items():
        lines.append(
            f"{name:<10} duration={s['duration']:7.1f}s "
            f"speculative-attempts={s['attempts']}"
        )
    return "\n".join(lines), stats
