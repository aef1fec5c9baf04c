"""Self-describing DST scenarios and their seeded generator.

A :class:`Scenario` is the unit of deterministic simulation testing: the
shipped :class:`~repro.cluster.ClusterConfig` and
:class:`~repro.core.config.IgnemConfig` it runs, a workload mix, and a
fault plan.  Those configs are both what the harness builds and the
*declaration* the oracles judge against.  Scenarios serialize to
canonical JSON (flat keys, sorted, exact float reprs) so a shrunk
failing scenario is byte-identical across machines and replays forever
from ``tests/dst/corpus/``.

The :class:`ScenarioGenerator` samples random scenarios from a seed:
cluster configs (node count, replication, buffer capacity, policy, HA)
× workload mixes (SWIM-shaped movers, wordcount scans over shared
datasets, sorts, Hive query fragments over shared tables) ×
:class:`~repro.faults.schedule.FaultSchedule` draws.  The same seed
always yields the same scenario — generation never touches a live
simulation.

:func:`swim_scenario` is the second family: the paper's testbed running
a SWIM workload under one random fault schedule — the scenario behind
each seed of ``python -m repro chaos``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cluster import ClusterConfig
from ..core.config import IgnemConfig
from ..core.heat import HeatConfig
from ..faults.schedule import FaultEvent, FaultSchedule
from ..sim.rand import RandomSource, derive_seed
from ..storage.device import GB, MB
from ..workloads.swim import SwimGenerator

#: Bump when the serialized scenario layout changes incompatibly.
FORMAT_VERSION = 1

#: Workload fragment kinds the generator samples from.
JOB_KINDS = ("swim", "wordcount", "sort", "hive")

#: Slack past the last job arrival that the fault window may cover.
FAULT_HORIZON_SLACK = 90.0

#: The same slack for :func:`swim_scenario`; crashes too close to
#: drain would fault an idle cluster.
SWIM_HORIZON_SLACK = 120.0

#: The heat policy of DST serve traffic: faster decay and ticks than
#: the product default, so DST-sized request streams promote and demote
#: within a run, and a tighter per-tenant cap.
DST_HEAT = HeatConfig(
    half_life=20.0, tick_interval=2.0, tenant_tick_bytes=256 * MB
)

#: Held-config fields every scenario's JSON carries.  Any other field
#: is written only when it differs from its default, so files written
#: before that field existed stay byte-canonical.
_CLUSTER_KEYS = (
    "seed", "num_nodes", "replication", "slots_per_node", "block_size"
)
_IGNEM_KEYS = ("buffer_capacity", "policy", "do_not_harm")
_HEAT_KEYS = ("tenant_tick_bytes",)


def _config_to_dict(config, default, always: Tuple[str, ...]) -> Dict:
    """``config``'s flat JSON keys: the ``always`` fields plus every
    field that differs from ``default``.  A differing field JSON cannot
    carry exactly raises instead of being dropped."""
    data = {}
    for spec in dataclasses.fields(config):
        value = getattr(config, spec.name)
        if spec.name in always or value != getattr(default, spec.name):
            if not isinstance(value, (bool, int, float, str, type(None))):
                raise ValueError(
                    f"{type(config).__name__}.{spec.name}={value!r} has "
                    f"no scenario JSON form"
                )
            data[spec.name] = value
    return data


def _pop_config(default, data: Dict):
    """The inverse of :func:`_config_to_dict`: ``default`` with every
    one of its fields that ``data`` names, popped from ``data`` (so a
    key left over is one no field reads, and the caller rejects it)."""
    return dataclasses.replace(
        default,
        **{
            spec.name: data.pop(spec.name)
            for spec in dataclasses.fields(default)
            if spec.name in data
        },
    )


@dataclass(frozen=True)
class ScenarioJob:
    """One job of a scenario's workload mix.

    ``input_path`` may be shared between jobs (wordcount and Hive
    fragments scan common datasets/tables), which is exactly the regime
    where per-block reference lists and the one-replica rule get
    interesting.
    """

    name: str
    kind: str  # one of JOB_KINDS
    input_path: str
    input_bytes: float
    arrival: float
    shuffle_fraction: float = 0.2
    output_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(f"unknown job kind {self.kind!r}")
        if not self.input_bytes > 0:
            raise ValueError("input_bytes must be positive")
        if not self.arrival >= 0:
            raise ValueError("arrival must be non-negative")

    @property
    def shuffle_bytes(self) -> float:
        return self.input_bytes * self.shuffle_fraction

    @property
    def output_bytes(self) -> float:
        return self.shuffle_bytes * self.output_fraction

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "ScenarioJob":
        return cls(**data)


@dataclass(frozen=True)
class ServeTraffic:
    """Interactive read traffic mixed into a scenario's batch workload.

    A seeded Zipfian request stream over a small set of shared objects,
    optionally with the hint-free popularity-driven migrator enabled —
    the serving regime of :mod:`repro.workloads.serve`, scaled down to
    DST size.  With ``heat`` on, the migrator runs ``heat_config``,
    whose ``tenant_tick_bytes`` is part of the *declared* expectation:
    the tenant-fairness oracle convicts any tick that grants one tenant
    more promotion bytes than this cap.
    """

    num_requests: int
    num_objects: int = 6
    object_bytes: float = 32 * MB
    num_tenants: int = 2
    zipf_s: float = 1.1
    heat: bool = True
    heat_config: HeatConfig = DST_HEAT

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        if self.num_objects < 1:
            raise ValueError("num_objects must be >= 1")
        if not self.object_bytes > 0:
            raise ValueError("object_bytes must be positive")
        if self.num_tenants < 1:
            raise ValueError("num_tenants must be >= 1")
        if not self.zipf_s > 0:
            raise ValueError("zipf_s must be positive")

    def to_dict(self) -> Dict:
        data = dataclasses.asdict(self)
        del data["heat_config"]
        data.update(_config_to_dict(self.heat_config, DST_HEAT, _HEAT_KEYS))
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "ServeTraffic":
        data = dict(data)
        heat_config = _pop_config(DST_HEAT, data)
        return cls(heat_config=heat_config, **data)


@dataclass(frozen=True)
class Scenario:
    """One complete DST input: cluster × workload × faults.

    ``cluster`` and ``ignem`` are the configs the harness runs, and the
    expectations the oracles check against (the spec is ground truth;
    the live system may be sabotaged to disagree).
    """

    cluster: ClusterConfig
    ignem: IgnemConfig
    ha: bool
    implicit_eviction: bool
    jobs: Tuple[ScenarioJob, ...]
    faults: Tuple[FaultEvent, ...] = ()
    #: Interactive read traffic alongside the batch jobs; ``None`` keeps
    #: the classic batch-only run.  Serialized only when set, so the
    #: pre-serving corpus stays byte-canonical.
    serve: Optional[ServeTraffic] = None

    def __post_init__(self) -> None:
        # The NameNode clamps replication to the live nodes; a scenario
        # must declare the factor its replication oracle will judge.
        if not 1 <= self.cluster.replication <= self.cluster.num_nodes:
            raise ValueError("replication must be in [1, num_nodes]")
        if not self.jobs:
            raise ValueError("a scenario needs at least one job")
        object.__setattr__(
            self,
            "faults",
            tuple(
                sorted(
                    self.faults, key=lambda e: (e.time, e.kind, e.target or "")
                )
            ),
        )

    # -- derived views ------------------------------------------------------------

    def fault_schedule(self) -> FaultSchedule:
        return FaultSchedule(self.faults, seed=self.cluster.seed)

    def input_files(self) -> Dict[str, float]:
        """path -> size of every (deduplicated) input file.

        Shared paths keep the *largest* declared size so every job's scan
        is satisfiable.
        """
        files: Dict[str, float] = {}
        for job in self.jobs:
            size = files.get(job.input_path, 0.0)
            files[job.input_path] = max(size, job.input_bytes)
        return files

    def describe(self) -> str:
        kinds: Dict[str, int] = {}
        for job in self.jobs:
            kinds[job.kind] = kinds.get(job.kind, 0) + 1
        mix = "+".join(f"{n}{k}" for k, n in sorted(kinds.items()))
        cluster, ignem = self.cluster, self.ignem
        text = (
            f"seed={cluster.seed} nodes={cluster.num_nodes} "
            f"rep={cluster.replication} "
            f"buf={ignem.buffer_capacity / MB:.0f}MB policy={ignem.policy} "
            f"ha={self.ha} jobs=[{mix}] faults={len(self.faults)}"
        )
        if cluster.tier_preset != "mem-hdd":
            text += f" tiers={cluster.tier_preset}"
        if ignem.migration_tier != "mem":
            text += f" dst={ignem.migration_tier}"
        if self.serve is not None:
            text += (
                f" serve={self.serve.num_requests}req/"
                f"{self.serve.num_objects}obj"
            )
            if self.serve.heat:
                text += "+heat"
        return text

    # -- serialization -------------------------------------------------------------

    def to_dict(self) -> Dict:
        data = {
            "format_version": FORMAT_VERSION,
            **_config_to_dict(self.cluster, ClusterConfig(), _CLUSTER_KEYS),
            **_config_to_dict(self.ignem, IgnemConfig(), _IGNEM_KEYS),
            "ha": self.ha,
            "implicit_eviction": self.implicit_eviction,
            "jobs": [job.to_dict() for job in self.jobs],
            "faults": [dataclasses.asdict(event) for event in self.faults],
        }
        if self.serve is not None:
            data["serve"] = self.serve.to_dict()
        return data

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, exact float reprs, one trailing
        newline — byte-identical for equal scenarios."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: Dict) -> "Scenario":
        data = dict(data)
        version = data.pop("format_version", FORMAT_VERSION)
        if version != FORMAT_VERSION:
            raise ValueError(
                f"scenario format_version {version} not supported "
                f"(this build reads {FORMAT_VERSION})"
            )
        cluster = _pop_config(ClusterConfig(), data)
        ignem = _pop_config(IgnemConfig(), data)
        serve = data.pop("serve", None)
        jobs = tuple(ScenarioJob.from_dict(job) for job in data.pop("jobs"))
        faults = tuple(FaultEvent(**event) for event in data.pop("faults"))
        # What is left is ``ha`` and ``implicit_eviction``; any other
        # key (a misspelt field) is a TypeError, not a silent default.
        return cls(
            cluster=cluster,
            ignem=ignem,
            serve=None if serve is None else ServeTraffic.from_dict(serve),
            jobs=jobs,
            faults=faults,
            **data,
        )

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> pathlib.Path:
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json())
        return target

    @classmethod
    def load(cls, path) -> "Scenario":
        return cls.from_json(pathlib.Path(path).read_text())


def swim_horizon(jobs) -> float:
    """End of a SWIM scenario's fault window: last arrival + slack."""
    return max(job.arrival for job in jobs) + SWIM_HORIZON_SLACK


def swim_scenario(
    seed: int, num_jobs: int, elasticity: bool = False
) -> Scenario:
    """Chaos seed ``seed`` as a scenario.

    The paper testbed (the ``ClusterConfig`` and ``IgnemConfig``
    defaults: 8 nodes x 8 slots, 64 MB blocks, replication 3, a 16 GB
    buffer, smallest-job-first; plus an HA master pair and implicit
    eviction) runs ``SwimGenerator(seed)``'s first ``num_jobs`` jobs
    while ``FaultSchedule.random(seed, ...)`` crashes, fails over,
    slows and (with ``elasticity``) kills, joins and decommissions.
    """
    jobs = tuple(
        ScenarioJob(
            name=job.name,
            kind="swim",
            input_path=job.input_path,
            input_bytes=job.input_bytes,
            arrival=job.arrival_time,
            # Input x fraction gives back the trace's exact byte counts.
            shuffle_fraction=job.shuffle_bytes / job.input_bytes,
            output_fraction=job.output_bytes / job.shuffle_bytes,
        )
        for job in SwimGenerator(seed).generate(num_jobs=num_jobs)
    )
    cluster = ClusterConfig(seed=seed)
    schedule = FaultSchedule.random(
        seed,
        [f"node{i}" for i in range(cluster.num_nodes)],
        swim_horizon(jobs),
        max_node_crashes=2,
        elasticity=elasticity,
    )
    return Scenario(
        cluster=cluster,
        ignem=IgnemConfig(),
        ha=True,
        implicit_eviction=True,
        jobs=jobs,
        faults=schedule.events,
    )


class ScenarioGenerator:
    """Samples random scenarios deterministically from a seed.

    Every draw comes from a child stream of the generator's seed, so
    scenario ``i`` is a pure function of ``(seed, i)`` — adding runs
    never perturbs earlier scenarios.
    """

    def __init__(
        self,
        seed: int = 0,
        elasticity: bool = False,
        interactive: bool = False,
    ):
        self.seed = int(seed)
        #: Draw kill/join/decommission events into fault plans.  Off by
        #: default: elasticity draws append to (never reorder) the
        #: classic stream, so old corpus scenarios stay byte-identical.
        self.elasticity = bool(elasticity)
        #: Mix interactive serve traffic (and usually the heat migrator)
        #: into generated scenarios.  Off by default for the same
        #: reason: serve draws come strictly after every classic draw.
        self.interactive = bool(interactive)

    def generate(self, index: int = 0) -> Scenario:
        scenario_seed = derive_seed(self.seed, f"dst-scenario-{index}")
        rng = RandomSource(scenario_seed).spawn("dst")

        num_nodes = rng.randint(2, 6)
        replication = rng.randint(1, min(3, num_nodes))
        slots_per_node = rng.randint(2, 4)
        block_size = rng.choice([32 * MB, 64 * MB, 128 * MB])
        # Log-uniform small buffers: pressure (do-not-harm stalls,
        # cleanup sweeps) should be the common case, not the rare one.
        buffer_capacity = math.exp(
            rng.uniform(math.log(128 * MB), math.log(4 * GB))
        )
        policy = "smallest-job-first" if rng.uniform(0, 1) < 0.75 else "fifo"
        ha = rng.uniform(0, 1) < 0.5
        implicit_eviction = rng.uniform(0, 1) < 0.5

        jobs = self._sample_jobs(rng)
        faults = self._sample_faults(rng, scenario_seed, num_nodes, jobs)
        serve = self._sample_serve(rng) if self.interactive else None

        return Scenario(
            cluster=ClusterConfig(
                seed=scenario_seed,
                num_nodes=num_nodes,
                replication=replication,
                slots_per_node=slots_per_node,
                block_size=block_size,
            ),
            ignem=IgnemConfig(buffer_capacity=buffer_capacity, policy=policy),
            ha=ha,
            implicit_eviction=implicit_eviction,
            jobs=tuple(jobs),
            faults=faults,
            serve=serve,
        )

    # -- workload mix -------------------------------------------------------------

    def _sample_serve(self, rng: RandomSource) -> Optional[ServeTraffic]:
        """Interactive traffic draws, strictly after every classic draw
        (so ``interactive=False`` reproduces the classic scenarios)."""
        if rng.uniform(0, 1) < 0.3:
            return None  # batch-only runs stay in the mix
        return ServeTraffic(
            num_requests=rng.randint(15, 60),
            num_objects=rng.randint(3, 10),
            object_bytes=rng.choice([16 * MB, 32 * MB, 64 * MB]),
            num_tenants=rng.randint(1, 3),
            zipf_s=rng.uniform(0.8, 1.5),
            heat=rng.uniform(0, 1) < 0.75,
            heat_config=dataclasses.replace(
                DST_HEAT,
                tenant_tick_bytes=self._log_uniform(rng, 64 * MB, 512 * MB),
            ),
        )

    def _sample_jobs(self, rng: RandomSource) -> List[ScenarioJob]:
        num_jobs = rng.randint(2, 8)
        # Shared datasets: wordcount and Hive fragments scan these, so
        # several jobs hold references on the same blocks concurrently.
        num_tables = rng.randint(1, 2)
        table_sizes = {
            f"/dst/table-{k}": self._log_uniform(rng, 64 * MB, 1 * GB)
            for k in range(num_tables)
        }

        jobs: List[ScenarioJob] = []
        arrival = 0.0
        for index in range(num_jobs):
            arrival += rng.expovariate(1.0 / rng.uniform(4.0, 15.0))
            kind = rng.choice(list(JOB_KINDS))
            name = f"dst-{index:02d}-{kind}"
            if kind == "swim":
                jobs.append(
                    ScenarioJob(
                        name=name,
                        kind=kind,
                        input_path=f"/dst/input-{index:02d}",
                        input_bytes=self._log_uniform(rng, 4 * MB, 2 * GB),
                        arrival=arrival,
                        shuffle_fraction=rng.uniform(0.05, 0.5),
                        output_fraction=rng.uniform(0.1, 0.5),
                    )
                )
            elif kind == "sort":
                # Sort moves its whole input through shuffle and out.
                jobs.append(
                    ScenarioJob(
                        name=name,
                        kind=kind,
                        input_path=f"/dst/input-{index:02d}",
                        input_bytes=self._log_uniform(rng, 16 * MB, 1 * GB),
                        arrival=arrival,
                        shuffle_fraction=1.0,
                        output_fraction=1.0,
                    )
                )
            elif kind == "wordcount":
                path = rng.choice(sorted(table_sizes))
                jobs.append(
                    ScenarioJob(
                        name=name,
                        kind=kind,
                        input_path=path,
                        input_bytes=table_sizes[path],
                        arrival=arrival,
                        shuffle_fraction=0.05,
                        output_fraction=0.2,
                    )
                )
            else:  # hive: a short fragment chain over one shared table
                path = rng.choice(sorted(table_sizes))
                stages = rng.randint(1, 2)
                for stage in range(stages):
                    jobs.append(
                        ScenarioJob(
                            name=f"{name}-s{stage}",
                            kind=kind,
                            input_path=path,
                            input_bytes=table_sizes[path],
                            arrival=arrival + stage * rng.uniform(2.0, 6.0),
                            shuffle_fraction=rng.uniform(0.02, 0.15),
                            output_fraction=rng.uniform(0.05, 0.3),
                        )
                    )
        return jobs

    # -- faults -------------------------------------------------------------------

    def _sample_faults(
        self,
        rng: RandomSource,
        scenario_seed: int,
        num_nodes: int,
        jobs: List[ScenarioJob],
    ) -> Tuple[FaultEvent, ...]:
        if rng.uniform(0, 1) < 0.25:
            return ()  # clean runs stay in the mix
        horizon = max(job.arrival for job in jobs) + FAULT_HORIZON_SLACK
        node_names = [f"node{i}" for i in range(num_nodes)]
        schedule = FaultSchedule.random(
            derive_seed(scenario_seed, "dst-faults"),
            node_names,
            horizon,
            max_node_crashes=max(0, min(2, num_nodes - 1)),
            elasticity=self.elasticity,
        )
        return schedule.events

    @staticmethod
    def _log_uniform(rng: RandomSource, low: float, high: float) -> float:
        return math.exp(rng.uniform(math.log(low), math.log(high)))
