"""Trace-scale replay: Google-trace-shaped jobs on a huge cluster.

Drives :class:`~repro.workloads.google_trace.GoogleTraceGenerator` rows
through a full :class:`~repro.cluster.Cluster` at configurable node/job
counts — the kernel-stress workload behind ``python -m repro scale``.
Each trace row becomes one job: an input file sized from the row's total
disk-read time, an Ignem migrate call at submission, a read wave after
the row's queueing delay, and an evict call at completion (the paper's
Section III client protocol, replayed at Google-trace scale).

Everything the replay runs on (O(replication) replica placement,
pooled timeouts, parked heartbeat loops, scheduler candidate buckets,
the scalar device water-fill) is the code every experiment runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from ..cluster import Cluster, ClusterConfig
from ..core.config import IgnemConfig
from ..sim.events import chain_arrivals, join_all
from ..storage.presets import HDD_BANDWIDTH
from .google_trace import GoogleTraceGenerator, GoogleTraceJob

GB = 1024.0**3


@dataclass(frozen=True)
class ScaleConfig:
    """Shape of one scale replay (defaults: the 10k/100k headline run)."""

    num_nodes: int = 10_000
    num_jobs: int = 100_000
    seed: int = 0
    #: Mean job interarrival in seconds (trace arrival process).
    mean_interarrival: float = 0.5
    #: Cap on blocks per job input file.  The trace's per-job read-time
    #: lognormal has sigma=2, so its far tail would turn single rows
    #: into multi-terabyte files; capping bounds the tail while leaving
    #: the bulk of the distribution untouched (capped jobs are counted
    #: in the result).
    max_blocks_per_job: int = 64
    #: Replay with Ignem enabled (migrate/evict calls around each job).
    #: False replays the plain-HDFS baseline: reads only.
    ignem: bool = True

    def __post_init__(self) -> None:
        if not self.mean_interarrival > 0:
            raise ValueError("mean_interarrival must be positive")
        if self.max_blocks_per_job < 1:
            raise ValueError("max_blocks_per_job must be >= 1")


@dataclass
class ScaleResult:
    """Determinism fingerprint + throughput numbers for one replay."""

    num_nodes: int
    num_jobs: int
    seed: int
    events: int
    sim_time: float
    jobs_completed: int
    block_reads: int
    ram_block_reads: int
    disk_block_reads: int
    migrations_completed: int
    migrated_bytes: float
    dataset_bytes: float
    capped_jobs: int
    wall_seconds: float

    @property
    def events_per_second(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "num_nodes": self.num_nodes,
            "num_jobs": self.num_jobs,
            "seed": self.seed,
            "events": self.events,
            "sim_time": self.sim_time,
            "jobs_completed": self.jobs_completed,
            "block_reads": self.block_reads,
            "ram_block_reads": self.ram_block_reads,
            "disk_block_reads": self.disk_block_reads,
            "migrations_completed": self.migrations_completed,
            "migrated_bytes": self.migrated_bytes,
            "dataset_bytes": self.dataset_bytes,
            "capped_jobs": self.capped_jobs,
            "wall_seconds": round(self.wall_seconds, 3),
            "events_per_second": round(self.events_per_second, 1),
        }


@dataclass
class _ReplayStats:
    """Mutable counters shared by every in-flight job's callbacks."""

    jobs_completed: int = 0
    block_reads: int = 0
    ram_block_reads: int = 0


def _job_bytes(job: GoogleTraceJob, block_size: float, max_blocks: int) -> float:
    """Input-file size implied by the row's total disk-read time.

    The trace reports read *time*; the paper's testbed disks move
    ~130 MB/s, so bytes = read_time x HDD bandwidth, capped at
    ``max_blocks`` blocks against the lognormal tail.
    """
    nbytes = max(1.0, job.total_read_time * HDD_BANDWIDTH)
    return min(nbytes, max_blocks * block_size)


def build_scale_cluster(config: ScaleConfig) -> Cluster:
    """A cluster sized for ``config``."""
    cluster = Cluster(
        ClusterConfig(
            num_nodes=config.num_nodes,
            replication=min(3, config.num_nodes),
            seed=config.seed,
        )
    )
    if config.ignem:
        cluster.enable_ignem(IgnemConfig())
    return cluster


def run_scale_replay(config: Optional[ScaleConfig] = None) -> ScaleResult:
    """Build the cluster, materialize the dataset, replay every row."""
    config = config or ScaleConfig()
    wall_start = time.perf_counter()

    cluster = build_scale_cluster(config)
    env = cluster.env
    namenode = cluster.namenode
    block_size = cluster.config.block_size

    jobs = GoogleTraceGenerator(config.seed).generate_jobs(
        config.num_jobs, mean_interarrival=config.mean_interarrival
    )

    # Dataset materialization happens before the measured run (as in the
    # paper's setup): block replicas appear on disks at no simulated cost.
    dataset_bytes = 0.0
    capped_jobs = 0
    cap = config.max_blocks_per_job * block_size
    for job in jobs:
        nbytes = _job_bytes(job, block_size, config.max_blocks_per_job)
        if nbytes >= cap and job.total_read_time * HDD_BANDWIDTH > cap:
            capped_jobs += 1
        namenode.create_file(f"/scale/input-{job.job_id}", nbytes)
        dataset_bytes += nbytes

    stats = _ReplayStats()
    rm = cluster.rm
    master = cluster.ignem_master
    datanodes = cluster.datanodes

    def submit(job: GoogleTraceJob) -> None:
        """Trace row arrives: register, migrate, wait out the queue delay."""
        job_id = f"job-{job.job_id}"
        rm.register_job(job_id)
        if master is not None:
            # The client's migrate call rides the job-submission RPC
            # (paper III-B); implicit eviction reclaims each block's
            # buffer space as soon as its read drops the last reference.
            master.request_migration(
                [f"/scale/input-{job.job_id}"], job_id, implicit_eviction=True
            )
        env.pooled_timeout(job.queue_delay, job).callbacks.append(read_wave)

    def read_wave(event) -> None:
        """Queue delay over: read every block, then finish the job."""
        job = event._value
        job_id = f"job-{job.job_id}"
        path = f"/scale/input-{job.job_id}"
        pending = []
        ram_reads = 0
        for block in namenode.file_blocks(path):
            memory = namenode.memory_locations(block.block_id)
            if memory:
                node = memory[0]
            else:
                locations = namenode.get_block_locations(block.block_id)
                if not locations:
                    continue
                node = locations[0]
            handle = datanodes[node].read_block(block, job_id)
            if handle.source == "ram":
                ram_reads += 1
            pending.append(handle.done)
        stats.block_reads += len(pending)
        stats.ram_block_reads += ram_reads

        def finish(done) -> None:
            # The join stays even for one block: eviction must run one
            # event after the reads, behind whatever the implicit-eviction
            # hook pushed at the same instant.
            if not done._ok:
                raise done._value
            if master is not None:
                master.request_eviction([path], job_id)
            rm.unregister_job(job_id)
            stats.jobs_completed += 1

        join_all(env, pending).callbacks.append(finish)

    chain_arrivals(env, ((job.submit_time, job) for job in jobs), submit)
    env.run()

    wall_seconds = time.perf_counter() - wall_start
    completed = cluster.collector.completed_migrations()
    return ScaleResult(
        num_nodes=config.num_nodes,
        num_jobs=config.num_jobs,
        seed=config.seed,
        events=env.events_scheduled,
        sim_time=env.now,
        jobs_completed=stats.jobs_completed,
        block_reads=stats.block_reads,
        ram_block_reads=stats.ram_block_reads,
        disk_block_reads=stats.block_reads - stats.ram_block_reads,
        migrations_completed=len(completed),
        migrated_bytes=sum(record.nbytes for record in completed),
        dataset_bytes=dataset_bytes,
        capped_jobs=capped_jobs,
        wall_seconds=wall_seconds,
    )


def format_scale_result(result: ScaleResult) -> str:
    """Human-readable report for ``repro scale`` (and scale.txt)."""
    ram_share = (
        100.0 * result.ram_block_reads / result.block_reads
        if result.block_reads
        else 0.0
    )
    lines = [
        "Trace-scale replay",
        "==================",
        f"cluster          : {result.num_nodes} nodes",
        f"jobs             : {result.jobs_completed}/{result.num_jobs} completed",
        f"dataset          : {result.dataset_bytes / GB:.1f} GB"
        f" ({result.capped_jobs} jobs capped)",
        f"sim time         : {result.sim_time:.1f} s",
        f"events           : {result.events}",
        f"block reads      : {result.block_reads}"
        f" ({result.ram_block_reads} from RAM, {ram_share:.1f}%)",
        f"migrations       : {result.migrations_completed}"
        f" ({result.migrated_bytes / GB:.1f} GB)",
        f"wall clock       : {result.wall_seconds:.1f} s"
        f" ({result.events_per_second:,.0f} events/s)",
    ]
    return "\n".join(lines)
