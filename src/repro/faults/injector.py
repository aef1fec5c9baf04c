"""Applies a :class:`~repro.faults.schedule.FaultSchedule` to a cluster.

The injector runs as one simulation process that walks the schedule in
time order and drives the cluster's failure hooks: whole-server crashes
and restarts via :meth:`Cluster.fail_node` / :meth:`Cluster.restart_node`,
master failovers via the :class:`~repro.core.ha.HighAvailabilityMaster`
(or a cold master restart when no HA pair is attached), slow-disk windows
via :meth:`TransferDevice.set_bandwidth`, and message-loss windows via
the network's and master's fault hooks.

Every probabilistic decision inside a loss window draws from the
injector's own :class:`~repro.sim.rand.RandomSource` child stream, so a
faulted run is a pure function of ``(workload seed, fault seed)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..sim.rand import RandomSource
from .invariants import data_loss_violations
from .schedule import FaultEvent, FaultSchedule

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import Cluster


class FaultInjector:
    """Drives one schedule against one live cluster."""

    def __init__(
        self,
        cluster: "Cluster",
        schedule: FaultSchedule,
    ):
        self.cluster = cluster
        self.schedule = schedule
        seed = schedule.seed if schedule.seed is not None else 0
        self.rng = RandomSource(seed).spawn("fault-injector")
        #: Events actually applied, with their application times.
        self.applied: List[Tuple[float, FaultEvent]] = []
        #: Data-loss violations observed at crash instants (a block with
        #: zero live replicas while fewer nodes are down than its
        #: replication factor can tolerate).
        self.violations: List[str] = []
        self._down: Set[str] = set()
        self._saved_bandwidth: Dict[str, float] = {}
        self._loss_prob = 0.0
        self._extra_delay_prob = 0.3
        self._started = False

    @property
    def down_nodes(self) -> Set[str]:
        return set(self._down)

    def start(self) -> None:
        """Spawn the injector process (idempotent)."""
        if self._started or self.schedule.is_empty:
            self._started = True
            return
        self._started = True
        self.cluster.env.process(self._run(), name="fault-injector")

    # -- process body ------------------------------------------------------------

    def _run(self):
        env = self.cluster.env
        for event in self.schedule.events:
            if event.time > env.now:
                yield env.timeout(event.time - env.now)
            self._apply(event)

    def _apply(self, event: FaultEvent) -> None:
        handler = getattr(self, f"_apply_{event.kind}")
        # Handlers return False for no-ops (e.g. crashing an already-down
        # node); only actually-applied events are recorded.
        if handler(event) is not False:
            self.applied.append((self.cluster.env.now, event))

    # -- handlers ------------------------------------------------------------------

    def _apply_crash(self, event: FaultEvent):
        """Fail a live server and check for data loss at that instant."""
        name = event.target
        if (
            name in self._down
            or name not in self.cluster.datanodes
            or name in self.cluster.released_nodes
        ):
            return False
        self._down.add(name)
        self.cluster.fail_node(name)
        self.violations.extend(
            data_loss_violations(
                self.cluster.namenode, self._down, when=self.cluster.env.now
            )
        )

    def _apply_restart(self, event: FaultEvent):
        name = event.target
        if name not in self._down or name in self.cluster.released_nodes:
            return False
        self._down.discard(name)
        self.cluster.restart_node(name)

    #: Permanent whole-server loss: the crash take-down with no restart
    #: scheduled.  Only the replication monitor can restore the
    #: replication factor.
    _apply_kill = _apply_crash

    def _apply_join(self, event: FaultEvent):
        name = event.target
        if name in self.cluster.datanodes:
            return False
        self.cluster.add_datanode(name)

    def _apply_decommission(self, event: FaultEvent):
        name = event.target
        if (
            name not in self.cluster.datanodes
            or name in self._down
            or name in self.cluster.released_nodes
        ):
            return False
        self.cluster.decommission(name)

    def _apply_master_fail(self, event: FaultEvent):
        master = self.cluster.ignem_master
        if master is None:
            return False
        if hasattr(master, "fail_primary"):
            master.fail_primary()
        else:
            master.fail()

    def _apply_master_recover(self, event: FaultEvent):
        master = self.cluster.ignem_master
        if master is None:
            return False
        if hasattr(master, "recover_primary"):
            master.recover_primary()
        else:
            master.restart()

    def _apply_slow_disk_start(self, event: FaultEvent) -> None:
        disk = self.cluster.datanodes[event.target].disk
        if event.target not in self._saved_bandwidth:
            self._saved_bandwidth[event.target] = disk.bandwidth
        disk.set_bandwidth(self._saved_bandwidth[event.target] * event.param)

    def _apply_slow_disk_end(self, event: FaultEvent):
        nominal = self._saved_bandwidth.pop(event.target, None)
        if nominal is None:
            return False
        self.cluster.datanodes[event.target].disk.set_bandwidth(nominal)

    def _apply_net_loss_start(self, event: FaultEvent) -> None:
        self._loss_prob = event.param
        self.cluster.network.fault_hook = self._network_fault
        master = self.cluster.ignem_master
        if master is not None:
            master.rpc_fault = self._rpc_fault

    def _apply_net_loss_end(self, event: FaultEvent) -> None:
        self._loss_prob = 0.0
        self.cluster.network.fault_hook = None
        master = self.cluster.ignem_master
        if master is not None:
            master.rpc_fault = None
        monitor = self.cluster.replication_monitor
        if monitor is not None:
            # Repairs that exhausted their retries inside the loss window
            # parked themselves; wake them now that messages flow again.
            monitor.retry_stalled()

    # -- fault hooks -------------------------------------------------------------------

    def _network_fault(self, src: str, dst: str, nbytes: float):
        if self.rng.uniform(0.0, 1.0) < self._loss_prob:
            return True, 0.0
        if self.rng.uniform(0.0, 1.0) < self._extra_delay_prob:
            return False, self.rng.uniform(0.005, 0.05)
        return False, 0.0

    def _rpc_fault(self, node: str) -> Optional[str]:
        if self.rng.uniform(0.0, 1.0) < self._loss_prob:
            return "lost"
        return None
