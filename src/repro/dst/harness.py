"""Run one DST scenario against the real system and judge it.

The harness is the glue between the three existing subsystems: it builds
a :class:`~repro.cluster.Cluster` from a :class:`Scenario`, arms the
:class:`~repro.faults.injector.FaultInjector` with the scenario's fault
plan, hooks the differential checker onto the master's command
boundary, runs the workload to full drain (:func:`drain_scenario`), and
evaluates every oracle of :data:`~repro.dst.oracles.ALL_ORACLES` over
the leftovers — the live cluster and its collector's records
(:func:`run_scenario`).

``apply_sabotage`` deliberately breaks a live cluster (flip the
do-not-harm flag, swap the queue policy, raise the real buffer cap) for
harness self-tests: a testing subsystem that cannot convict a planted
bug proves nothing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cluster import Cluster
from ..core.policy import make_policy
from ..dfs.datanode import DataNodeError
from ..dfs.namenode import NameNodeError
from ..faults.injector import FaultInjector
from ..mapreduce.spec import JobSpec
from ..net.network import NetworkError
from ..sim.events import chain_arrivals, join_all
from ..sim.rand import RandomSource, derive_seed
from ..storage.device import MB
from ..workloads.serve import ZipfSampler
from .model import DifferentialChecker
from .oracles import OracleContext, OracleReport, run_oracles
from .scenario import Scenario

#: Sabotage modes for harness self-tests (see ``apply_sabotage``).
SABOTAGE_MODES = (
    "evict-to-admit",
    "fifo-queue",
    "overcommit-buffer",
    "disable-repair",
)

#: The failures a serve read may meet under faults; counted, not raised.
_SERVE_ERRORS = (NameNodeError, DataNodeError, NetworkError)

#: SWIM-style IO movers: modest per-byte compute (matches swim_runs).
_MAP_CPU_FACTOR = 0.25
_REDUCE_CPU_FACTOR = 0.5


@dataclass
class ScenarioResult:
    """Everything one judged scenario run leaves behind."""

    scenario: Scenario
    #: (oracle name, message) for every violated expectation.
    violations: List[Tuple[str, str]]
    reports: List[OracleReport]
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def format_violations(self, limit: int = 10) -> str:
        lines = [
            f"  [{oracle}] {message}"
            for oracle, message in self.violations[:limit]
        ]
        hidden = len(self.violations) - limit
        if hidden > 0:
            lines.append(f"  ... and {hidden} more")
        return "\n".join(lines)


def build_cluster(scenario: Scenario) -> Tuple[Cluster, DifferentialChecker]:
    """Assemble the live system a scenario describes (not yet running)."""
    cluster = Cluster(scenario.cluster)
    cluster.enable_ignem(scenario.ignem, ha=scenario.ha)
    cluster.enable_rereplication()

    checker = DifferentialChecker(scenario.ignem)
    cluster.ignem_master.command_tap = checker.on_delivery
    cluster.ignem_master.failure_tap = checker.on_slave_failure

    for path, nbytes in sorted(scenario.input_files().items()):
        cluster.client.create_file(path, nbytes)
    serve = scenario.serve
    if serve is not None:
        for index in range(serve.num_objects):
            cluster.client.create_file(
                _serve_object_path(index), serve.object_bytes
            )
        if serve.heat:
            cluster.enable_heat_migration(serve.heat_config)
    return cluster, checker


def apply_sabotage(cluster: Cluster, mode: str) -> None:
    """Break the live cluster on purpose (harness self-test).

    * ``evict-to-admit`` — turn the live config's ``do_not_harm`` off,
      so full buffers evict migrated blocks of larger jobs to admit new
      ones: the III-A3 violation the oracles must convict from the
      scenario's declared guarantee.
    * ``fifo-queue`` — swap every slave's queue policy to FIFO while the
      scenario declares smallest-job-first: an ordering bug for the
      differential model.
    * ``overcommit-buffer`` — quadruple the *real* buffer cap behind the
      scenario's back: usage may exceed the declared cap.
    * ``disable-repair`` — turn the replication monitor off: a permanent
      node loss leaves blocks under-replicated forever, which the
      replication oracle must convict.

    The first three install a replaced config on every slave and on the
    cluster (which later-joined slaves read); the scenario's own,
    declared config is never touched.
    """
    if mode not in SABOTAGE_MODES:
        raise ValueError(
            f"unknown sabotage {mode!r}; choose from {SABOTAGE_MODES}"
        )
    if mode == "disable-repair":
        cluster.replication_monitor.enabled = False
        return
    config = cluster._ignem_config
    if mode == "evict-to-admit":
        config = dataclasses.replace(config, do_not_harm=False)
    elif mode == "fifo-queue":
        config = dataclasses.replace(config, policy="fifo")
    else:  # overcommit-buffer
        config = dataclasses.replace(
            config, buffer_capacity=config.buffer_capacity * 4
        )
    cluster._ignem_config = config
    for slave in cluster.ignem_slaves.values():
        slave.config = config
        slave.policy = make_policy(config.policy, config.reverse_within_job)


def scenario_specs(scenario: Scenario) -> Tuple[List[JobSpec], List[float]]:
    """Engine job specs + arrival times for a scenario's workload."""
    specs = []
    arrivals = []
    for job in scenario.jobs:
        num_reduces = max(
            1, min(16, int(job.shuffle_bytes // (128 * MB)) + 1)
        )
        specs.append(
            JobSpec(
                name=job.name,
                input_paths=(job.input_path,),
                shuffle_bytes=job.shuffle_bytes,
                output_bytes=job.output_bytes,
                num_reduces=num_reduces,
                map_cpu_factor=_MAP_CPU_FACTOR,
                reduce_cpu_factor=_REDUCE_CPU_FACTOR,
            )
        )
        arrivals.append(job.arrival)
    return specs, arrivals


def _serve_object_path(index: int) -> str:
    return f"/dst/serve/obj-{index:02d}"


def serve_requests(
    scenario: Scenario,
) -> List[Tuple[float, str, str, str]]:
    """Deterministic (arrival, path, tenant, reader) interactive stream.

    A pure function of the scenario (child seed ``dst-serve``), so
    replays and shrink candidates see the identical request trace.
    """
    serve = scenario.serve
    if serve is None:
        return []
    rng = RandomSource(derive_seed(scenario.cluster.seed, "dst-serve")).spawn(
        "serve"
    )
    zipf = ZipfSampler(serve.num_objects, serve.zipf_s)
    horizon = max(job.arrival for job in scenario.jobs) + 30.0
    mean_gap = horizon / serve.num_requests
    requests = []
    arrival = 0.0
    for _ in range(serve.num_requests):
        arrival += rng.expovariate(1.0 / mean_gap)
        path = _serve_object_path(zipf.sample(rng.uniform(0.0, 1.0)))
        tenant = f"tenant{rng.randint(0, serve.num_tenants - 1)}"
        reader = f"node{rng.randint(0, scenario.cluster.num_nodes - 1)}"
        requests.append((arrival, path, tenant, reader))
    return requests


def _start_serve_traffic(
    cluster: Cluster, scenario: Scenario, stats: Dict[str, float]
) -> None:
    """Replay the scenario's interactive requests: each one reads every
    block of its object.

    Faults may legitimately kill the read (no live replica, serving
    node down): availability is not under test here, migration safety
    is — failed reads are counted, not raised.
    """
    requests = serve_requests(scenario)
    stats["serve_requests"] = len(requests)
    stats["serve_completed"] = 0
    stats["serve_failed"] = 0
    env = cluster.env

    def finish(join) -> None:
        if join.ok:
            stats["serve_completed"] += 1
        elif isinstance(join.value, _SERVE_ERRORS):
            stats["serve_failed"] += 1
        else:
            raise join.value

    def serve_request(request) -> None:
        _arrival, path, tenant, reader = request
        try:
            metadata = cluster.namenode.get_file(path)
            reads = [
                cluster.client.read_block(block, reader, tenant=tenant)
                for block in metadata.blocks
            ]
        except _SERVE_ERRORS:
            stats["serve_failed"] += 1
            return
        join_all(env, [read.done for read in reads]).callbacks.append(finish)

    chain_arrivals(
        env, ((request[0], request) for request in requests), serve_request
    )


def _fault_timelines(
    injector: FaultInjector, cluster: Cluster, ha: bool
) -> Tuple[List[Tuple[float, str]], Dict[str, List[Tuple[float, float]]]]:
    """Derive queue-purge instants and server outage windows from the
    faults actually applied (crashes and kills purge one slave; a master
    failover with HA, or a cold master restart without, purges every
    slave; a completed decommission purges its node at release time and
    leaves it down for good)."""
    purges: List[Tuple[float, str]] = []
    down_windows: Dict[str, List[Tuple[float, float]]] = {}
    open_outage: Dict[str, float] = {}
    all_nodes = sorted(cluster.ignem_slaves)
    for when, event in injector.applied:
        if event.kind in ("crash", "kill"):
            purges.append((when, event.target))
            open_outage[event.target] = when
        elif event.kind == "restart":
            down_at = open_outage.pop(event.target, None)
            if down_at is not None:
                down_windows.setdefault(event.target, []).append(
                    (down_at, when)
                )
        elif event.kind == "master_fail" and ha:
            purges.extend((when, node) for node in all_nodes)
        elif event.kind == "master_recover" and not ha:
            purges.extend((when, node) for node in all_nodes)
    for when, node in cluster.decommission_log:
        purges.append((when, node))
        open_outage.setdefault(node, when)
    purges.sort()
    for node, down_at in open_outage.items():
        down_windows.setdefault(node, []).append((down_at, float("inf")))
    return purges, down_windows


def drain_scenario(
    scenario: Scenario, sabotage: Optional[str] = None
) -> Tuple[OracleContext, Dict[str, float]]:
    """Build, fault and run one scenario to full drain.

    Returns everything the oracles judge, plus the serve-traffic counts
    (empty for a batch-only scenario).
    """
    cluster, checker = build_cluster(scenario)
    if sabotage is not None:
        apply_sabotage(cluster, sabotage)

    injector = FaultInjector(cluster, scenario.fault_schedule())
    injector.start()

    stats: Dict[str, float] = {}
    if scenario.serve is not None:
        _start_serve_traffic(cluster, scenario, stats)

    specs, arrivals = scenario_specs(scenario)
    cluster.engine.run_workload(
        specs, arrivals, implicit_eviction=scenario.implicit_eviction
    )
    # Full drain (no `until`): every retry, re-replication copy, restart,
    # and straggling migration settles before judgment.
    cluster.run()

    # The heat policy holds promoted blocks for as long as they are hot;
    # retire it (evict everything it owns) and drain those evictions
    # before judging end-state invariants.
    if cluster.heat_migrator is not None:
        cluster.heat_migrator.shutdown()
        cluster.run()

    # Forced liveness sweep (III-A4): settle references the periodic
    # sweeps have not reclaimed yet.
    for slave in cluster.ignem_slaves.values():
        if slave.alive:
            slave.cleanup_dead_jobs(force=True)

    purges, down_windows = _fault_timelines(injector, cluster, scenario.ha)

    context = OracleContext(
        scenario=scenario,
        cluster=cluster,
        checker=checker,
        injector=injector,
        purges=purges,
        down_windows=down_windows,
    )
    return context, stats


def run_scenario(
    scenario: Scenario, sabotage: Optional[str] = None
) -> ScenarioResult:
    """Build, fault, run to full drain, and judge one scenario."""
    context, stats = drain_scenario(scenario, sabotage)
    reports = run_oracles(context)
    violations = [
        (report.name, message)
        for report in reports
        for message in report.violations
    ]

    cluster = context.cluster
    injector = context.injector
    jobs = cluster.engine.jobs
    registry = cluster.metrics
    monitor = cluster.replication_monitor
    if cluster.heat_migrator is not None:
        stats["heat_promotions"] = registry.counter(
            "heat.policy.promotions"
        ).value
        stats["heat_demotions"] = registry.counter(
            "heat.policy.demotions"
        ).value
        stats["heat_ticks"] = registry.counter("heat.policy.ticks").value
    stats.update({
        "jobs_total": len(jobs),
        "jobs_completed": sum(
            1 for job in jobs if job.finished_at is not None
        ),
        "jobs_failed": sum(1 for job in jobs if job.failed),
        "faults_applied": len(injector.applied),
        "command_retries": registry.counter(
            "ignem.master.command_retries"
        ).value,
        "commands_rerouted": registry.counter(
            "ignem.master.commands_rerouted"
        ).value,
        "commands_abandoned": registry.counter(
            "ignem.master.commands_abandoned"
        ).value,
        "migrations_completed": registry.counter(
            "ignem.slave.migrations_completed"
        ).value,
        "repair_enabled": monitor.enabled,
        "repair_copies": registry.counter(
            "dfs.repair.copies_completed"
        ).value,
        "repair_retries": registry.counter("dfs.repair.copy_retries").value,
        "repair_excess_dropped": registry.counter(
            "dfs.repair.excess_dropped"
        ).value,
        "rebalance_moves": registry.counter(
            "dfs.repair.rebalance_moves"
        ).value,
        "under_replicated": len(monitor.under_replicated_blocks()),
        "missing_blocks": len(monitor.missing_blocks()),
        "decommissions_completed": len(cluster.decommission_log),
        "nodes_joined": sum(
            1 for _, event in injector.applied if event.kind == "join"
        ),
        "sim_time": cluster.env.now,
    })
    return ScenarioResult(
        scenario=scenario,
        violations=violations,
        reports=reports,
        stats=stats,
    )
