"""The benchmark's workloads.

A workload is a pass over a fixed list of seeded *members*, each one
complete run of a program entry point.  Member 0 is the *reference*
member: it runs with :data:`REFERENCE_SEED` whatever the run's
``--seed``, so its simulated outputs are the same in every run of one
program and a change to them shows at once.  For swim it is Table I's
Ignem run.  The other members' seeds are derived from ``--seed``, so
one seed always gives the same inputs and two seeds give disjoint ones.
Every member reports its host set-up and run times through a
:class:`Stopwatch` and its outputs as an :class:`Outcome`.

Set-up ends where the measured work starts: for the simulated workloads
at the first entry into ``Environment.run`` (which ``Cluster.run``,
``run_serve`` and ``run_scale_replay`` all call), for the real cluster
at the client's first ``LocationsRequest``.
"""

from __future__ import annotations

import asyncio
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

from layers import patched
from summary import percentile, tail_quantile

from repro.dfs.datanode import DataNode
from repro.experiments.swim_runs import prepare_swim_cluster
from repro.sim.engine import Environment
from repro.transport.aio import AsyncioTransport
from repro.transport.messages import LocationsRequest
from repro.transport.real import DataNodeService, run_real_demo
from repro.workloads.scale import ScaleConfig, run_scale_replay
from repro.workloads.serve import ServeConfig, run_serve

SWIM_JOBS = 200
SERVE_REQUESTS = 20_000
SCALE_NODES = 500
SCALE_JOBS = 5_000
REAL_READS = 250
REAL_REPLICATION = 2
#: The reference member's seed; seeded members start above it.
REFERENCE_SEED = 0


class Stopwatch:
    """Host time of one member, split at the end of its set-up."""

    def __init__(self) -> None:
        self.start = perf_counter()
        self.setup_end: Optional[float] = None
        self.end: Optional[float] = None

    def mark_setup(self) -> None:
        if self.setup_end is None:
            self.setup_end = perf_counter()

    def stop(self) -> None:
        self.end = perf_counter()

    @property
    def setup_s(self) -> float:
        return self.setup_end - self.start

    @property
    def run_s(self) -> float:
        return self.end - self.setup_end


@dataclass
class Outcome:
    """What one member produced, apart from its host times."""

    #: Units of service attempted and failed (jobs, requests, reads).
    attempted: int
    failed: int
    #: Block reads, and those served from RAM.
    reads: int
    ram_reads: int
    #: Headline latency of the unit of service, and its tail at the
    #: highest percentile with at least ten samples beyond it.
    latency_ms: float
    tail_ms: float
    #: Simulated outputs; every repeat of one member seed must match.
    outputs: Dict[str, object]
    #: Workload-specific per-layer values.
    extra: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Members per pass.
    members: int
    member: Callable[[int, Stopwatch], Outcome]
    #: Whether every output and count repeats exactly per seed.
    simulated: bool

    def member_seeds(self, seed: int) -> List[int]:
        seeded = self.members - 1
        first = REFERENCE_SEED + 1 + seed * seeded
        return [REFERENCE_SEED] + list(range(first, first + seeded))

    def measure(self, member_seed: int):
        """Run one member; ``(outcome, stopwatch)``."""
        watch = Stopwatch()
        outcome = self.member(member_seed, watch)
        if watch.setup_end is None or watch.end is None:
            raise RuntimeError(f"{self.name} member never reached its measured phase")
        return outcome, watch


@contextmanager
def _sim_setup_ends(watch: Stopwatch) -> Iterator[None]:
    def wrap(run):
        def run_after_setup(env, *args, **kwargs):
            watch.mark_setup()
            return run(env, *args, **kwargs)

        return run_after_setup

    with patched(Environment, "run", wrap):
        yield


def swim_member(seed: int, watch: Stopwatch) -> Outcome:
    """200 SWIM jobs on the paper testbed with Ignem (Table I's run)."""
    with _sim_setup_ends(watch):
        cluster, _jobs, specs, arrivals = prepare_swim_cluster(
            "ignem", seed=seed, num_jobs=SWIM_JOBS
        )
        done = cluster.engine.run_workload(specs, arrivals, implicit_eviction=True)
        cluster.run(until=done)
    watch.stop()
    collector = cluster.collector
    durations = [job.duration for job in collector.jobs]
    reads = collector.block_reads
    ram_reads = sum(1 for read in reads if read.source == "ram")
    mean_job_s = collector.mean_job_duration()
    return Outcome(
        attempted=SWIM_JOBS,
        failed=SWIM_JOBS - len(durations),
        reads=len(reads),
        ram_reads=ram_reads,
        latency_ms=1000.0 * mean_job_s,
        tail_ms=1000.0 * percentile(durations, tail_quantile(len(durations))),
        outputs={
            "mean_job_s": mean_job_s,
            "job_durations": durations,
            "reads": len(reads),
            "ram_reads": ram_reads,
            "sim_time": cluster.env.now,
        },
    )


def serve_member(seed: int, watch: Stopwatch) -> Outcome:
    """Zipf reads under the heat policy, one request per 64 MB block."""
    with _sim_setup_ends(watch):
        result = run_serve(
            ServeConfig(policy="heat", num_requests=SERVE_REQUESTS, seed=seed)
        )
    watch.stop()
    return Outcome(
        attempted=result.num_requests,
        failed=result.num_requests - result.requests_served,
        reads=result.ram_block_reads + result.disk_block_reads,
        ram_reads=result.ram_block_reads,
        latency_ms=1000.0 * result.mean,
        # 20k requests: p999 is the highest percentile with ten beyond.
        tail_ms=1000.0 * result.p999,
        outputs=result.to_dict(),
    )


def scale_member(seed: int, watch: Stopwatch) -> Outcome:
    """Google-trace rows on a 500-node cluster, 10 jobs per node."""
    latencies: List[float] = []

    def wrap(read_block):
        # The replay records no per-read latency; time each read in sim
        # time from its done event.  The callback only appends.
        def read_block_timed(datanode, *args, **kwargs):
            handle = read_block(datanode, *args, **kwargs)
            env = datanode.env
            start = env.now
            handle.done.callbacks.append(lambda _event: latencies.append(env.now - start))
            return handle

        return read_block_timed

    with _sim_setup_ends(watch), patched(DataNode, "read_block", wrap):
        result = run_scale_replay(
            ScaleConfig(num_nodes=SCALE_NODES, num_jobs=SCALE_JOBS, seed=seed)
        )
    watch.stop()
    outputs = result.to_dict()
    del outputs["wall_seconds"], outputs["events_per_second"]
    outputs["read_latencies"] = latencies
    return Outcome(
        attempted=result.num_jobs,
        failed=result.num_jobs - result.jobs_completed,
        reads=result.block_reads,
        ram_reads=result.ram_block_reads,
        latency_ms=1000.0 * sum(latencies) / len(latencies),
        tail_ms=1000.0 * percentile(latencies, tail_quantile(len(latencies))),
        outputs=outputs,
    )


def _stop_heartbeats_first(stop):
    # Python 3.11's asyncio.wait_for drops a cancellation that arrives
    # just as the awaited reply does.  When that hits a heartbeat's
    # request, the heartbeat loop carries on and DataNodeService.stop
    # awaits it forever (seen once in about 500 members).
    # Cancel until the loop has ended; then stop as the program does.
    async def stop_after_heartbeats(service):
        task = service._heartbeat_task
        while task is not None and not task.done():
            task.cancel()
            await asyncio.wait({task}, timeout=0.1)
        return await stop(service)

    return stop_after_heartbeats


def real_member(seed: int, watch: Stopwatch) -> Outcome:
    """The asyncio localhost cluster: write, read cold, migrate, read hot."""

    def wrap(request):
        async def request_after_setup(transport, endpoint, message):
            if isinstance(message, LocationsRequest):
                watch.mark_setup()
            return await request(transport, endpoint, message)

        return request_after_setup

    with patched(AsyncioTransport, "request", wrap), patched(
        DataNodeService, "stop", _stop_heartbeats_first
    ):
        result = run_real_demo(
            nodes=3, files=4, reads=REAL_READS, seed=seed, replication=REAL_REPLICATION
        )
    watch.stop()
    return Outcome(
        attempted=2 * REAL_READS + result.blocks * REAL_REPLICATION,
        failed=len(result.errors) + result.blocks_lost,
        reads=REAL_READS,
        ram_reads=result.phase2_ram_reads,
        latency_ms=result.phase2_p50_ms,
        # The program reports only p50 and p99; at 250 reads its p99 has
        # two or three samples beyond it, not the ten the tail rule asks for.
        tail_ms=result.phase2_p99_ms,
        outputs={
            "blocks": result.blocks,
            "phase1_ram_reads": result.phase1_ram_reads,
            "phase2_ram_reads": result.phase2_ram_reads,
            "blocks_lost": result.blocks_lost,
            "errors": result.errors,
        },
        extra={
            "real.cold_read_p50_ms": result.phase1_p50_ms,
            "real.cold_read_p99_ms": result.phase1_p99_ms,
        },
    )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("swim", members=10, member=swim_member, simulated=True),
        Workload("serve", members=3, member=serve_member, simulated=True),
        Workload("scale", members=2, member=scale_member, simulated=True),
        Workload("real", members=2, member=real_member, simulated=False),
    )
}
