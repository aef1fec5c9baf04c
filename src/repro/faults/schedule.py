"""Deterministic, seed-driven fault schedules.

A :class:`FaultSchedule` is a time-ordered list of :class:`FaultEvent`
records to be applied to a live cluster by the
:class:`~repro.faults.injector.FaultInjector`.  Schedules are plain data:
generating one draws from a :class:`~repro.sim.rand.RandomSource` child
stream and never touches the simulation, so the same seed always yields
the same schedule regardless of cluster state.

Fault taxonomy (see DESIGN.md, "Failure model & fault injection"):

* ``crash`` / ``restart`` — whole-server failure and recovery
  (DataNode + Ignem slave + NodeManager + NIC, paper III-A5);
* ``master_fail`` / ``master_recover`` — Ignem master failover
  (routed through :class:`~repro.core.ha.HighAvailabilityMaster`
  when one is attached, else a cold master restart);
* ``slow_disk_start`` / ``slow_disk_end`` — a straggling disk whose
  sequential bandwidth degrades to ``param`` of nominal for a window;
* ``net_loss_start`` / ``net_loss_end`` — a window during which each
  network message is lost with probability ``param`` (and surviving
  messages may pick up extra delay);
* ``kill`` — permanent whole-server loss (a crash with no restart:
  only self-healing re-replication can restore the replication factor);
* ``join`` — a brand-new DataNode enters the cluster
  (:meth:`~repro.cluster.Cluster.add_datanode`);
* ``decommission`` — graceful drain-and-release of a node
  (:meth:`~repro.cluster.Cluster.decommission`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..sim.rand import RandomSource

FAULT_KINDS = (
    "crash",
    "restart",
    "master_fail",
    "master_recover",
    "slow_disk_start",
    "slow_disk_end",
    "net_loss_start",
    "net_loss_end",
    "kill",
    "join",
    "decommission",
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: *when*, *what*, *where*, and a knob value."""

    time: float
    kind: str
    target: Optional[str] = None
    param: float = 0.0

    def __post_init__(self) -> None:
        if not self.time >= 0:
            raise ValueError(f"fault time must be non-negative, got {self.time}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, time-sorted fault plan."""

    events: Tuple[FaultEvent, ...]
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(self.events, key=lambda e: (e.time, e.kind, e.target or ""))
        )
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def is_empty(self) -> bool:
        return not self.events

    def crashed_nodes(self) -> List[str]:
        """Distinct nodes this schedule crashes at some point."""
        seen = []
        for event in self.events:
            if event.kind == "crash" and event.target not in seen:
                seen.append(event.target)
        return seen

    @classmethod
    def random(
        cls,
        seed: int,
        node_names: Sequence[str],
        horizon: float,
        max_node_crashes: int = 2,
        crash_prob: float = 0.8,
        straggler_prob: float = 0.6,
        master_failover_prob: float = 0.5,
        net_loss_prob: float = 0.5,
        min_downtime: float = 15.0,
        max_downtime: float = 60.0,
        elasticity: bool = False,
    ) -> "FaultSchedule":
        """Draw a seed-deterministic schedule over ``[0, horizon]``.

        At most ``max_node_crashes`` *distinct* nodes crash, and every
        crash is paired with a restart after a bounded downtime — so with
        the paper's replication factor of 3 no block can lose all its
        replicas, and the cluster always returns to full strength (jobs
        can finish, and the data-loss invariant stays checkable).

        ``elasticity=True`` additionally draws membership-change events —
        ``join`` (usually), plus ``kill`` and ``decommission`` when the
        crash draws left enough untouched nodes (each pick needs two
        untouched candidates, so at least one original node survives the
        whole schedule unharmed).  The elasticity draws happen strictly
        *after* every classic draw, so for any seed the classic portion
        of the schedule is byte-identical with the flag off (old corpora
        stay canonical).
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if max_node_crashes >= len(node_names):
            raise ValueError(
                "max_node_crashes must leave a live majority "
                f"({max_node_crashes} crashes over {len(node_names)} nodes)"
            )
        rng = RandomSource(seed).spawn("fault-schedule")
        names = sorted(node_names)
        events: List[FaultEvent] = []

        crashes = sum(
            1 for _ in range(max_node_crashes) if rng.uniform(0.0, 1.0) < crash_prob
        )
        crash_victims = rng.sample(names, crashes)
        for victim in crash_victims:
            at = rng.uniform(0.05, 0.7) * horizon
            downtime = rng.uniform(min_downtime, max_downtime)
            events.append(FaultEvent(at, "crash", victim))
            events.append(FaultEvent(at + downtime, "restart", victim))

        if rng.uniform(0.0, 1.0) < straggler_prob:
            node = rng.choice(names)
            at = rng.uniform(0.1, 0.8) * horizon
            duration = rng.uniform(20.0, 90.0)
            factor = rng.uniform(0.05, 0.3)
            events.append(FaultEvent(at, "slow_disk_start", node, factor))
            events.append(FaultEvent(at + duration, "slow_disk_end", node))

        if rng.uniform(0.0, 1.0) < master_failover_prob:
            at = rng.uniform(0.1, 0.8) * horizon
            recovery = rng.uniform(10.0, 40.0)
            events.append(FaultEvent(at, "master_fail"))
            events.append(FaultEvent(at + recovery, "master_recover"))

        if rng.uniform(0.0, 1.0) < net_loss_prob:
            at = rng.uniform(0.1, 0.8) * horizon
            duration = rng.uniform(10.0, 60.0)
            loss = rng.uniform(0.05, 0.3)
            events.append(FaultEvent(at, "net_loss_start", None, loss))
            events.append(FaultEvent(at + duration, "net_loss_end"))

        if elasticity:
            # Every elasticity draw comes after the classic ones, so the
            # classic portion of any seed's schedule never changes.
            if rng.uniform(0.0, 1.0) < 0.75:
                joined = f"node{len(names)}"
                events.append(
                    FaultEvent(rng.uniform(0.1, 0.5) * horizon, "join", joined)
                )
            # kill / decommission pick from nodes the crash draws left
            # untouched; each pick needs two untouched candidates so the
            # cluster always has somewhere to re-replicate to.
            pool = [n for n in names if n not in crash_victims]
            if len(pool) >= 2 and rng.uniform(0.0, 1.0) < 0.6:
                victim = rng.choice(pool)
                pool.remove(victim)
                events.append(
                    FaultEvent(rng.uniform(0.15, 0.6) * horizon, "kill", victim)
                )
            if len(pool) >= 2 and rng.uniform(0.0, 1.0) < 0.5:
                drained = rng.choice(pool)
                events.append(
                    FaultEvent(
                        rng.uniform(0.3, 0.8) * horizon, "decommission", drained
                    )
                )

        return cls(tuple(events), seed=seed)
