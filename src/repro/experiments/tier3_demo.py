"""Three-tier (mem/ssd/hdd) migration demo.

The tier axis the PR 5 refactor introduces, exercised end-to-end: the
``mem-ssd-hdd`` preset puts a capacity SSD tier between the paper's RAM
buffer and the backing HDD, and a size router sends each job's migration
to a tier by input size — small jobs go to memory (the paper's design),
big scans that would blow the RAM budget go to the SSD tier instead of
not migrating at all.

The same SWIM workload runs twice — classic 2-tier vs routed 3-tier —
and the report compares job durations, per-tier peak occupancy (from the
slaves' exact per-tier usage timelines), and the per-tier routing split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..cluster import build_paper_testbed
from ..core.config import IgnemConfig
from ..core.master import dispatch_master_message
from ..metrics.stats import mean, speedup_factor
from ..storage.device import GB, MB
from ..workloads import swim
from .swim_runs import SWIM_ENGINE, SWIM_MAP_CPU_FACTOR, SWIM_REDUCE_CPU_FACTOR, _with_cpu_factors

#: Jobs with inputs above this migrate to the SSD tier, not memory.
SIZE_THRESHOLD = 256 * MB
#: RAM-tier cap: deliberately tight, so big-job migrations would not fit.
MEM_CAP = 2 * GB
#: SSD-tier cap: roomy — capacity is what the middle tier is for.
SSD_CAP = 12 * GB

_NUM_JOBS = 40
_NUM_NODES = 4


class SizeRoutingMaster:
    """Client-facing shim that routes each migrate call by input size.

    Serves the transport's ``"master"`` endpoint in front of the Ignem
    master and forwards with an explicit ``dst_tier``: the demo's policy
    layer, three lines on top of the tier-addressed master API.
    """

    def __init__(self, master, threshold: float):
        self.master = master
        self.threshold = threshold
        self.routed: Dict[str, int] = {}

    def request_migration(
        self,
        paths: Sequence[str],
        job_id: str,
        implicit_eviction: bool = False,
    ) -> None:
        nbytes = self.master.namenode.total_bytes(paths)
        tier = "ssd" if nbytes > self.threshold else "mem"
        self.routed[tier] = self.routed.get(tier, 0) + 1
        self.master.request_migration(
            paths, job_id, implicit_eviction=implicit_eviction, dst_tier=tier
        )

    def request_eviction(self, paths: Sequence[str], job_id: str) -> None:
        self.master.request_eviction(paths, job_id)

    def handle_message(self, msg):
        """The ``"master"`` transport endpoint, routed through the shim."""
        return dispatch_master_message(self, msg)


@dataclass
class TierRun:
    """One mode's outcome."""

    mode: str
    mean_job_seconds: float
    migrations_completed: int
    #: tier -> peak migrated bytes across all slaves (exact timelines).
    tier_peaks: Dict[str, float]
    #: tier -> migrate requests the router sent there (3-tier only).
    routed: Dict[str, int]


@dataclass
class Tier3Study:
    runs: List[TierRun]
    #: The per-tier occupancy pull metrics the registry now exposes.
    pull_metrics: List[str]

    def run_for(self, mode: str) -> TierRun:
        for run in self.runs:
            if run.mode == mode:
                return run
        raise KeyError(mode)

    def format(self) -> str:
        lines = [
            "Three-tier migration demo (SWIM %d jobs, %d nodes, "
            "size threshold %.0fMB)" % (_NUM_JOBS, _NUM_NODES, SIZE_THRESHOLD / MB),
            "",
            f"{'mode':<10} {'mean job (s)':>12} {'migrations':>11} "
            f"{'peak mem':>12} {'peak ssd':>12} {'routed mem/ssd':>15}",
        ]
        for run in self.runs:
            routed = (
                f"{run.routed.get('mem', 0)}/{run.routed.get('ssd', 0)}"
                if run.routed
                else "-"
            )
            lines.append(
                f"{run.mode:<10} {run.mean_job_seconds:>12.2f} "
                f"{run.migrations_completed:>11d} "
                f"{run.tier_peaks.get('mem', 0.0) / MB:>10.0f}MB "
                f"{run.tier_peaks.get('ssd', 0.0) / MB:>10.0f}MB "
                f"{routed:>15}"
            )
        two = self.run_for("2tier")
        three = self.run_for("3tier")
        lines.append("")
        ram_ratio = two.tier_peaks.get("mem", 0.0) / max(
            1.0, three.tier_peaks.get("mem", 0.0)
        )
        lines.append(
            "3-tier trade-off vs 2-tier: peak RAM footprint "
            f"{ram_ratio:.1f}x smaller, mean job duration "
            f"{speedup_factor(three.mean_job_seconds, two.mean_job_seconds):.2f}x "
            "the baseline"
        )
        lines.append(
            "per-tier occupancy pull metrics: " + ", ".join(self.pull_metrics)
        )
        return "\n".join(lines)


def _run_mode(mode: str, seed: int) -> TierRun:
    three_tier = mode == "3tier"
    overrides = {"num_nodes": _NUM_NODES}
    if three_tier:
        overrides["tier_preset"] = "mem-ssd-hdd"
    cluster = build_paper_testbed(
        seed=seed, engine_config=SWIM_ENGINE, **overrides
    )
    if three_tier:
        config = IgnemConfig(
            buffer_capacity=MEM_CAP,
            tier_buffer_capacities=(("mem", MEM_CAP), ("ssd", SSD_CAP)),
        )
    else:
        config = IgnemConfig(buffer_capacity=MEM_CAP)
    master = cluster.enable_ignem(config)

    router: Optional[SizeRoutingMaster] = None
    if three_tier:
        router = SizeRoutingMaster(master, SIZE_THRESHOLD)
        cluster.transport.register("master", router.handle_message)

    jobs = swim.SwimGenerator(seed=seed).generate(num_jobs=_NUM_JOBS)
    swim.materialize(cluster, jobs)
    specs, arrivals = swim.to_specs(jobs)
    specs = [
        _with_cpu_factors(spec, SWIM_MAP_CPU_FACTOR, SWIM_REDUCE_CPU_FACTOR)
        for spec in specs
    ]
    done = cluster.engine.run_workload(specs, arrivals)
    cluster.run(until=done)

    durations = [
        job.finished_at - job.submitted_at
        for job in cluster.engine.jobs
        if job.finished_at is not None
    ]
    tier_peaks: Dict[str, float] = {}
    for slave in cluster.ignem_slaves.values():
        for tier, timeline in slave.tier_usage_timeline.items():
            peak = max(usage for _, usage in timeline)
            tier_peaks[tier] = max(tier_peaks.get(tier, 0.0), peak)
    return TierRun(
        mode=mode,
        mean_job_seconds=mean(durations),
        migrations_completed=int(
            cluster.metrics.value("ignem.slave.migrations_completed")
        ),
        tier_peaks=tier_peaks,
        routed=dict(router.routed) if router is not None else {},
    )


def run_tier3_demo(seed: int = 0) -> Tier3Study:
    """Run the 2-tier baseline and the routed 3-tier config."""
    runs = [_run_mode("2tier", seed), _run_mode("3tier", seed)]
    # Re-derive the pull-metric names from a fresh 3-tier registry so the
    # report documents exactly what a metrics snapshot exposes.
    pull_metrics = [
        f"ignem.slave.tier.{tier}.resident_bytes" for tier in ("mem", "ssd")
    ]
    return Tier3Study(runs=runs, pull_metrics=pull_metrics)
