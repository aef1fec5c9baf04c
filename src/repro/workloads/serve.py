"""Interactive serving workload: Zipfian reads, latency SLOs.

Everything else the repro runs is batch analytics measured in job
duration.  This module opens the second workload axis of the paper's
motivating mixed cluster (PAPER.md, the Google trace): request-serving
traffic measured in *read latency percentiles*.  A seeded generator
produces a multi-tenant request stream — Zipfian object popularity
(each tenant has its own hot set), a diurnal load curve, optional
flash-crowd spikes — and a driver replays it against a cluster under
one of three policies:

* ``none`` — plain HDFS, every read hits disk until the buffer cache
  happens to help;
* ``hint`` — Ignem with an oracle submitter hint: the globally hottest
  objects are migrated up front (what a perfectly informed operator
  would pin);
* ``heat`` — Ignem plus the hint-free popularity-driven policy
  (:mod:`repro.core.heat`): the system learns heat from observed reads
  and promotes/demotes on its own.

Per-request latency lands in ``serve.read_latency_seconds`` (plus one
histogram per tenant) with SLO summary gauges ``serve.slo.p50`` /
``p99`` / ``p999`` / ``mean`` pulled from the same histogram.  Two runs
with one seed are byte-identical: :class:`ServeResult.to_dict`
deliberately excludes wall-clock time.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cluster import Cluster, ClusterConfig
from ..core.config import IgnemConfig
from ..sim.events import chain_arrivals, join_all
from ..sim.rand import RandomSource
from ..storage.device import GB, MB

#: Latency bucket bounds (seconds) tuned to the serving range: a local
#: RAM block read is ~0.04s, a remote disk read ~0.5s, and a thrashing
#: disk under the diurnal peak runs into tens of seconds.
SERVE_BUCKETS: Tuple[float, ...] = (
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.0,
    5.0,
    10.0,
    30.0,
    120.0,
)


def object_path(index: int) -> str:
    """DFS path of serving object ``index`` (``/serve/obj-0007``)."""
    return f"/serve/obj-{index:04d}"


#: Seconds one flash crowd lasts.
FLASH_CROWD_DURATION = 20.0
#: Probability a request inside a flash window redirects to the crowd's
#: object.
FLASH_CROWD_BOOST = 0.35
#: Bytes per serving object (one DFS block), and its replica count
#: (capped at the cluster size).
OBJECT_BYTES = 64 * MB
REPLICATION = 3
#: Per-slave cap on migrated bytes under the ``hint`` and ``heat``
#: policies.
BUFFER_CAPACITY = 2 * GB


@dataclass(frozen=True)
class ServeConfig:
    """Shape of one serving run (defaults: the paper-testbed cluster
    under a load its disks cannot absorb but its RAM can).

    Object size, replication and the migration buffer are the module
    constants :data:`OBJECT_BYTES`, :data:`REPLICATION` and
    :data:`BUFFER_CAPACITY`; the ``heat`` policy runs with the default
    :class:`~repro.core.heat.HeatConfig`.
    """

    num_nodes: int = 8
    num_objects: int = 48
    num_requests: int = 1200
    #: Mean arrival rate (requests/second) before the diurnal curve.
    #: 3 req/s of 64MB objects keeps the aggregate demand under the
    #: disks' sequential bandwidth, but popularity skew concentrates the
    #: hot set on a few replica holders — exactly the regime where
    #: upward migration pays (p99 collapses once the hot set is in RAM).
    base_rps: float = 3.0
    #: Zipf exponent of object popularity (higher = more skew).
    zipf_s: float = 1.1
    num_tenants: int = 3
    #: Diurnal load curve: rate(t) = base * (1 + A * sin(2*pi*t/period)).
    diurnal_amplitude: float = 0.5
    diurnal_period: float = 240.0
    #: Flash crowds, each :data:`FLASH_CROWD_DURATION` seconds long.
    flash_crowds: int = 1
    policy: str = "heat"
    #: Objects the oracle hint pins (``policy="hint"``).
    hint_objects: int = 8
    #: SWIM batch jobs to run alongside the request stream (0 = pure
    #: interactive; >0 reproduces the paper's mixed cluster).
    batch_jobs: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if self.num_objects < 1:
            raise ValueError("num_objects must be >= 1")
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if not self.base_rps > 0:
            raise ValueError("base_rps must be positive")
        if not self.zipf_s > 0:
            raise ValueError("zipf_s must be positive")
        if self.num_tenants < 1:
            raise ValueError("num_tenants must be >= 1")
        if not 0 <= self.diurnal_amplitude <= 1:
            raise ValueError("diurnal_amplitude must be in [0, 1]")
        if not self.diurnal_period > 0:
            raise ValueError("diurnal_period must be positive")
        if self.flash_crowds < 0:
            raise ValueError("flash_crowds must be >= 0")
        if self.policy not in ("none", "hint", "heat"):
            raise ValueError(
                f"policy must be 'none', 'hint', or 'heat', got {self.policy!r}"
            )
        if self.hint_objects < 1:
            raise ValueError("hint_objects must be >= 1")
        if self.batch_jobs < 0:
            raise ValueError("batch_jobs must be >= 0")


class ZipfSampler:
    """Inverse-CDF sampling of a Zipf(s) distribution over ``n`` ranks.

    Deterministic given the uniform draw: rank ``k`` has weight
    ``1 / (k+1)**s``.  Sampling is a bisect over the precomputed CDF, so
    a request stream costs O(log n) per draw.
    """

    def __init__(self, n: int, s: float):
        if n < 1:
            raise ValueError("n must be >= 1")
        if not s > 0:
            raise ValueError("s must be positive")
        self.n = n
        self.s = s
        weights = [1.0 / (k + 1) ** s for k in range(n)]
        total = sum(weights)
        self._cdf: List[float] = []
        cumulative = 0.0
        for weight in weights:
            cumulative += weight / total
            self._cdf.append(cumulative)
        self._cdf[-1] = 1.0  # guard float drift at the top

    def probability(self, rank: int) -> float:
        """P(rank) — the sampler's exact mass at one rank."""
        if rank == 0:
            return self._cdf[0]
        return self._cdf[rank] - self._cdf[rank - 1]

    def sample(self, u: float) -> int:
        """Map one uniform draw in [0, 1) to a popularity rank."""
        return min(self.n - 1, bisect_left(self._cdf, u))


def diurnal_rate(
    base: float, amplitude: float, period: float, t: float
) -> float:
    """Request rate at time ``t`` under the diurnal curve, floored at
    5% of base so the arrival process never stalls in the trough."""
    rate = base * (1.0 + amplitude * math.sin(2.0 * math.pi * t / period))
    return max(0.05 * base, rate)


@dataclass(frozen=True)
class ServeRequest:
    """One read request of the generated stream."""

    time: float
    path: str
    tenant: str
    reader: str
    flash: bool = False


def generate_requests(
    config: ServeConfig, rng: RandomSource
) -> List[ServeRequest]:
    """Synthesize the request stream (pure function of config + rng).

    Draw order is part of the determinism contract: per-tenant
    popularity permutations, then flash windows, then per-request
    (arrival gap, tenant, rank, flash redirect, reader).  Each tenant
    sees the same Zipf *shape* over its own shuffled object order, so
    tenants have distinct hot sets and fairness caps bind for real.
    """
    zipf = ZipfSampler(config.num_objects, config.zipf_s)

    # Tenant popularity permutations: tenant i's rank r maps to its own
    # object, so "hot" means different blocks per tenant.
    permutations: List[List[int]] = []
    for _tenant in range(config.num_tenants):
        order = list(range(config.num_objects))
        rng.shuffle(order)
        permutations.append(order)

    # Tenant mix: geometric weights (tenant0 busiest), normalized CDF.
    weights = [0.6**index for index in range(config.num_tenants)]
    total = sum(weights)
    tenant_cdf: List[float] = []
    cumulative = 0.0
    for weight in weights:
        cumulative += weight / total
        tenant_cdf.append(cumulative)
    tenant_cdf[-1] = 1.0

    # Flash-crowd windows: each picks a mid-popularity object and a
    # start inside the nominal horizon.
    horizon = config.num_requests / config.base_rps
    windows: List[Tuple[float, float, int]] = []
    for _crowd in range(config.flash_crowds):
        start = rng.uniform(0.15, 0.7) * horizon
        low = config.num_objects // 4
        high = max(low, (3 * config.num_objects) // 4)
        windows.append(
            (start, start + FLASH_CROWD_DURATION, rng.randint(low, high))
        )

    requests: List[ServeRequest] = []
    t = 0.0
    for _index in range(config.num_requests):
        rate = diurnal_rate(
            config.base_rps,
            config.diurnal_amplitude,
            config.diurnal_period,
            t,
        )
        t += rng.expovariate(rate)
        tenant_index = bisect_left(tenant_cdf, rng.uniform(0.0, 1.0))
        tenant_index = min(tenant_index, config.num_tenants - 1)
        rank = zipf.sample(rng.uniform(0.0, 1.0))
        obj = permutations[tenant_index][rank]
        flash = False
        for start, end, flash_obj in windows:
            if start <= t < end and rng.uniform(0.0, 1.0) < FLASH_CROWD_BOOST:
                obj = flash_obj
                flash = True
                break
        reader = f"node{rng.randint(0, config.num_nodes - 1)}"
        requests.append(
            ServeRequest(
                time=t,
                path=object_path(obj),
                tenant=f"tenant{tenant_index}",
                reader=reader,
                flash=flash,
            )
        )
    return requests


@dataclass
class ServeResult:
    """SLO summary + determinism fingerprint for one serving run."""

    policy: str
    num_nodes: int
    num_objects: int
    num_requests: int
    num_tenants: int
    seed: int
    sim_time: float
    events: int
    requests_served: int
    flash_requests: int
    p50: float
    p99: float
    p999: float
    mean: float
    tenant_p99: Dict[str, float]
    ram_block_reads: int
    disk_block_reads: int
    migrations_completed: int
    migrated_bytes: float
    promotions: int
    demotions: int
    shed: int
    queued: int
    expired: int
    batch_jobs_completed: int
    wall_seconds: float

    @property
    def ram_share(self) -> float:
        reads = self.ram_block_reads + self.disk_block_reads
        return self.ram_block_reads / reads if reads else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON payload.  Wall-clock time is intentionally absent: two
        runs with one seed must serialize byte-identically."""
        return {
            "policy": self.policy,
            "num_nodes": self.num_nodes,
            "num_objects": self.num_objects,
            "num_requests": self.num_requests,
            "num_tenants": self.num_tenants,
            "seed": self.seed,
            "sim_time": round(self.sim_time, 6),
            "events": self.events,
            "requests_served": self.requests_served,
            "flash_requests": self.flash_requests,
            "p50": round(self.p50, 6),
            "p99": round(self.p99, 6),
            "p999": round(self.p999, 6),
            "mean": round(self.mean, 6),
            "tenant_p99": {
                tenant: round(value, 6)
                for tenant, value in sorted(self.tenant_p99.items())
            },
            "ram_block_reads": self.ram_block_reads,
            "disk_block_reads": self.disk_block_reads,
            "ram_share": round(self.ram_share, 4),
            "migrations_completed": self.migrations_completed,
            "migrated_bytes": self.migrated_bytes,
            "promotions": self.promotions,
            "demotions": self.demotions,
            "shed": self.shed,
            "queued": self.queued,
            "expired": self.expired,
            "batch_jobs_completed": self.batch_jobs_completed,
        }


@dataclass
class _ServeStats:
    """Mutable tallies shared by the request callbacks."""

    served: int = 0
    ram_block_reads: int = 0
    disk_block_reads: int = 0


def _oracle_hints(requests: List[ServeRequest], count: int) -> List[str]:
    """The hint policy's pin list: the ``count`` most-requested paths
    (ties broken by path) — a perfectly informed operator."""
    tallies: Dict[str, int] = {}
    for request in requests:
        tallies[request.path] = tallies.get(request.path, 0) + 1
    ranked = sorted(tallies, key=lambda path: (-tallies[path], path))
    return ranked[:count]


def run_serve(config: Optional[ServeConfig] = None) -> ServeResult:
    """Build the cluster, replay the request stream, summarize SLOs."""
    config = config or ServeConfig()
    wall_start = time.perf_counter()

    cluster = Cluster(
        ClusterConfig(
            num_nodes=config.num_nodes,
            replication=min(REPLICATION, config.num_nodes),
            seed=config.seed,
        )
    )
    env = cluster.env
    registry = cluster.metrics

    for index in range(config.num_objects):
        cluster.client.create_file(object_path(index), OBJECT_BYTES)

    if config.policy in ("hint", "heat"):
        cluster.enable_ignem(IgnemConfig(buffer_capacity=BUFFER_CAPACITY))
    if config.policy == "heat":
        cluster.enable_heat_migration()

    rng = RandomSource(config.seed).spawn("serve")
    requests = generate_requests(config, rng)

    if config.policy == "hint":
        # The oracle hint rides one synthetic job for the whole run,
        # exactly like a submitter pinning its service's working set.
        cluster.rm.register_job("serve-hint")
        cluster.ignem_master.request_migration(
            _oracle_hints(requests, config.hint_objects), "serve-hint"
        )

    histogram = registry.histogram("serve.read_latency_seconds", SERVE_BUCKETS)
    tenant_histograms = {
        f"tenant{index}": registry.histogram(
            f"serve.tenant.tenant{index}.read_latency_seconds", SERVE_BUCKETS
        )
        for index in range(config.num_tenants)
    }

    def _slo(quantile: Optional[float]):
        def pull() -> float:
            if histogram.count == 0:
                return 0.0
            if quantile is None:
                return histogram.mean
            return histogram.quantile(quantile)

        return pull

    registry.register_pull("serve.slo.p50", _slo(0.50))
    registry.register_pull("serve.slo.p99", _slo(0.99))
    registry.register_pull("serve.slo.p999", _slo(0.999))
    registry.register_pull("serve.slo.mean", _slo(None))

    stats = _ServeStats()
    client = cluster.client
    file_blocks = cluster.namenode.file_blocks

    def serve_request(request: ServeRequest) -> None:
        """Issue every block read now; observe latency once all are done."""
        started = env.now
        pending = []
        for block in file_blocks(request.path):
            read = client.read_block(block, request.reader, tenant=request.tenant)
            if read.source == "ram":
                stats.ram_block_reads += 1
            else:
                stats.disk_block_reads += 1
            pending.append(read.done)
        tenant_histogram = tenant_histograms[request.tenant]

        def finish(event) -> None:
            # Re-raise a failed read so it aborts env.run(), as an
            # unwaited crashed process would.  ``finish`` has no
            # simulated side effects, so it may run inside the read's
            # own dispatch rather than one join event later.
            if not event._ok:
                raise event._value
            latency = env.now - started
            histogram.observe(latency)
            tenant_histogram.observe(latency)
            stats.served += 1

        if len(pending) == 1:
            pending[0].callbacks.append(finish)
        else:
            join_all(env, pending).callbacks.append(finish)

    chain_arrivals(
        env, ((request.time, request) for request in requests), serve_request
    )

    batch_done = None
    if config.batch_jobs > 0:
        from . import swim

        generator = swim.SwimGenerator(seed=config.seed)
        jobs = generator.generate(num_jobs=config.batch_jobs)
        swim.materialize(cluster, jobs)
        specs, job_arrivals = swim.to_specs(jobs)
        batch_done = cluster.engine.run_workload(specs, job_arrivals)

    env.run()

    def heat_count(event: str) -> int:
        if cluster.heat_migrator is None:
            return 0
        return int(registry.value(f"heat.policy.{event}"))

    completed = cluster.collector.completed_migrations()
    batch_completed = 0
    if batch_done is not None:
        batch_completed = sum(
            1 for job in cluster.engine.jobs if job.completed.triggered
        )
    return ServeResult(
        policy=config.policy,
        num_nodes=config.num_nodes,
        num_objects=config.num_objects,
        num_requests=config.num_requests,
        num_tenants=config.num_tenants,
        seed=config.seed,
        sim_time=env.now,
        events=env.events_scheduled,
        requests_served=stats.served,
        flash_requests=sum(1 for request in requests if request.flash),
        p50=histogram.quantile(0.50) if histogram.count else 0.0,
        p99=histogram.quantile(0.99) if histogram.count else 0.0,
        p999=histogram.quantile(0.999) if histogram.count else 0.0,
        mean=histogram.mean if histogram.count else 0.0,
        tenant_p99={
            tenant: (hist.quantile(0.99) if hist.count else 0.0)
            for tenant, hist in tenant_histograms.items()
        },
        ram_block_reads=stats.ram_block_reads,
        disk_block_reads=stats.disk_block_reads,
        migrations_completed=len(completed),
        migrated_bytes=sum(record.nbytes for record in completed),
        promotions=heat_count("promotions"),
        demotions=heat_count("demotions"),
        shed=heat_count("shed"),
        queued=heat_count("queued"),
        expired=heat_count("expired"),
        batch_jobs_completed=batch_completed,
        wall_seconds=time.perf_counter() - wall_start,
    )


def format_serve_result(result: ServeResult) -> str:
    """Human-readable report for ``repro serve`` (and serve.txt)."""
    lines = [
        "Interactive serving replay",
        "==========================",
        f"policy           : {result.policy}",
        f"cluster          : {result.num_nodes} nodes",
        f"objects          : {result.num_objects}"
        f" x {result.num_tenants} tenants",
        f"requests         : {result.requests_served}/{result.num_requests}"
        f" served ({result.flash_requests} flash)",
        f"sim time         : {result.sim_time:.1f} s",
        f"read latency     : p50 {result.p50 * 1000:.0f} ms"
        f" | p99 {result.p99 * 1000:.0f} ms"
        f" | p999 {result.p999 * 1000:.0f} ms"
        f" | mean {result.mean * 1000:.0f} ms",
        f"ram reads        : {result.ram_block_reads}"
        f" ({100.0 * result.ram_share:.1f}% of block reads)",
        f"migrations       : {result.migrations_completed}"
        f" ({result.migrated_bytes / GB:.2f} GB)",
    ]
    if result.policy == "heat":
        lines.append(
            f"heat policy      : {result.promotions} promoted,"
            f" {result.demotions} demoted, {result.queued} queued,"
            f" {result.shed} shed, {result.expired} expired"
        )
    if result.batch_jobs_completed:
        lines.append(
            f"batch jobs       : {result.batch_jobs_completed} completed"
        )
    for tenant in sorted(result.tenant_p99):
        lines.append(
            f"{tenant:<17}: p99 {result.tenant_p99[tenant] * 1000:.0f} ms"
        )
    return "\n".join(lines)
