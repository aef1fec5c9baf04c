"""High-availability master pair (paper Section III-A5).

The paper: "A backup master can also be kept active at all times, and
have its address pre-listed in the configuration file."  This module
implements that option: a primary and a hot standby share the slave
topology; clients talk to the pair through :class:`HighAvailabilityMaster`,
which routes to whichever master is alive.  On failover the slaves purge
their reference lists to stay consistent with the standby's empty state —
the paper's "temporary performance loss, never a correctness loss".
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..dfs.namenode import NameNode
from ..obs.registry import MetricsRegistry
from ..sim.engine import Environment
from ..sim.rand import RandomSource
from ..transport.messages import FailoverMsg
from .config import IgnemConfig
from .master import IgnemMaster, dispatch_master_message
from .slave import IgnemSlave


class HighAvailabilityMaster:
    """A primary/standby Ignem master pair behind one client-facing API.

    Failover is immediate (the standby's address is pre-listed, so there
    is no configuration broadcast to wait for): the first request after a
    primary failure is served by the standby.  Both masters report into
    one shared :class:`MetricsRegistry`, so ``ignem.master.*`` counters
    are cluster-wide totals across failovers.
    """

    def __init__(
        self,
        env: Environment,
        namenode: NameNode,
        rng: Optional[RandomSource] = None,
        config: Optional[IgnemConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        *,
        transport,
    ):
        rng = rng or RandomSource(0)
        registry = registry or MetricsRegistry()
        self.transport = transport
        self.primary = IgnemMaster(
            env,
            namenode,
            rng=rng.spawn("primary"),
            config=config,
            registry=registry,
            transport=transport,
        )
        self.standby = IgnemMaster(
            env,
            namenode,
            rng=rng.spawn("standby"),
            config=config,
            registry=registry,
            transport=transport,
        )
        self._failovers = 0

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry shared by both masters."""
        return self.primary.metrics

    @property
    def obs(self):
        """Observability facade, mirrored onto both masters."""
        return self.primary.obs

    @obs.setter
    def obs(self, facade) -> None:
        self.primary.obs = facade
        self.standby.obs = facade

    # -- topology -------------------------------------------------------------

    def attach_slave(self, slave: IgnemSlave) -> None:
        """Register a slave with both masters (shared topology)."""
        self.primary.attach_slave(slave)
        self.standby.attach_slave(slave)

    def slaves(self) -> List[IgnemSlave]:
        return self.active.slaves()

    # -- routing ----------------------------------------------------------------

    @property
    def active(self) -> IgnemMaster:
        """Whichever master currently serves requests."""
        if self.primary.alive:
            return self.primary
        return self.standby

    @property
    def alive(self) -> bool:
        return self.primary.alive or self.standby.alive

    @property
    def failovers(self) -> int:
        return self._failovers

    def request_migration(
        self,
        paths: Sequence[str],
        job_id: str,
        implicit_eviction: bool = False,
    ) -> None:
        self.active.request_migration(
            paths, job_id, implicit_eviction=implicit_eviction
        )

    def request_eviction(self, paths: Sequence[str], job_id: str) -> None:
        self.active.request_eviction(paths, job_id)

    def request_block_migration(
        self, blocks, owner: str, dst_tier: Optional[str] = None
    ) -> None:
        self.active.request_block_migration(blocks, owner, dst_tier=dst_tier)

    def request_block_eviction(
        self, block_ids: Sequence[str], owner: str
    ) -> None:
        self.active.request_block_eviction(block_ids, owner)

    def handle_message(self, msg):
        """The ``"master"`` transport endpoint, routed through the pair
        (the first request after a primary failure lands on the standby)."""
        return dispatch_master_message(self, msg)

    # -- fault-injection plumbing ---------------------------------------------------

    @property
    def rpc_fault(self):
        """Per-send fault hook, mirrored onto both masters."""
        return self.primary.rpc_fault

    @rpc_fault.setter
    def rpc_fault(self, hook) -> None:
        self.primary.rpc_fault = hook
        self.standby.rpc_fault = hook

    @property
    def command_tap(self):
        """Command-boundary tap, mirrored onto both masters so the DST
        differential checker sees deliveries across failovers."""
        return self.primary.command_tap

    @command_tap.setter
    def command_tap(self, tap) -> None:
        self.primary.command_tap = tap
        self.standby.command_tap = tap

    @property
    def failure_tap(self):
        """Slave-state-loss tap; mirroring it onto both masters means a
        crash observed by either one releases the migration target (the
        discard is idempotent, so the double fire is harmless)."""
        return self.primary.failure_tap

    @failure_tap.setter
    def failure_tap(self, tap) -> None:
        self.primary.failure_tap = tap
        self.standby.failure_tap = tap

    def handle_slave_failure(self, node: str) -> None:
        """Prune the crashed slave's routing state from both masters."""
        self.primary.handle_slave_failure(node)
        self.standby.handle_slave_failure(node)

    # -- failure handling ----------------------------------------------------------

    def fail_primary(self) -> None:
        """Kill the primary; the standby takes over on the next request.

        Slaves purge their reference lists so they are consistent with
        the standby's empty migration state (paper III-A5) — exactly the
        same rule as a cold master restart, but with zero unavailability
        because the standby is already running.
        """
        if not self.primary.alive:
            return
        self.primary.fail()
        self._failovers += 1
        # Announce the failover to every slave as a protocol message; the
        # slave's handler purges its reference lists.
        announcement = FailoverMsg(generation=self._failovers, active="standby")
        for slave in self.standby.slaves():
            self.transport.send(f"slave/{slave.name}", announcement)

    def recover_primary(self) -> None:
        """Bring the primary back as the new standby-turned-active pair.

        The recovered process starts empty; since the standby carried the
        live assignment state it simply keeps serving (no purge needed).
        """
        self.primary.alive = True
        if self.standby.alive:
            # Two live masters: the standby keeps its state; the freshly
            # recovered primary must not serve with stale (empty) state,
            # so swap roles — the old standby becomes the primary.
            self.primary, self.standby = self.standby, self.primary
