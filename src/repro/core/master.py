"""IgnemMaster: determines *what* migrates, hosted in the NameNode.

Clients (job submitters) send the master the list of files a job will
soon read.  The master maps files to blocks via the NameNode, picks ONE
replica per block uniformly at random (paper III-A2 — network bandwidth
is plentiful, so one in-memory copy suffices), batches the resulting
per-slave command lists, and ships them over (simulated) RPC.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..dfs.blocks import Block
from ..dfs.namenode import NameNode
from ..obs.registry import MetricsRegistry
from ..net.network import NetworkError
from ..sim.engine import Environment
from ..sim.rand import RandomSource
from ..transport.messages import (
    Ack,
    DemoteBlocksRequest,
    EvictFilesRequest,
    EvictMsg,
    FailoverMsg,
    MigrateFilesRequest,
    MigrateMsg,
    PromoteBlocksRequest,
)
from .commands import EvictCommand, MigrateCommand, MigrationWorkItem
from .config import (
    COMMAND_BACKOFF,
    COMMAND_BACKOFF_FACTOR,
    COMMAND_MAX_RETRIES,
    COMMAND_TIMEOUT,
    RPC_LATENCY,
    IgnemConfig,
)
from .slave import IgnemSlave


def dispatch_master_message(master, msg):
    """Shared ``"master"`` endpoint dispatch: translate a client-facing
    protocol message into the corresponding request method.  Used by
    both :class:`IgnemMaster` and the HA pair (which routes each request
    to its active member)."""
    if isinstance(msg, MigrateFilesRequest):
        master.request_migration(
            msg.paths, msg.job_id, implicit_eviction=msg.implicit_eviction
        )
        return Ack(True)
    if isinstance(msg, EvictFilesRequest):
        master.request_eviction(msg.paths, msg.job_id)
        return Ack(True)
    if isinstance(msg, PromoteBlocksRequest):
        master.request_block_migration(
            msg.blocks, msg.owner, dst_tier=msg.dst_tier
        )
        return Ack(True)
    if isinstance(msg, DemoteBlocksRequest):
        master.request_block_eviction(msg.block_ids, msg.owner)
        return Ack(True)
    raise TypeError(f"master cannot handle {type(msg).__name__}")


class IgnemMaster:
    """The migration coordinator.

    RPC/workload tallies live in a :class:`MetricsRegistry` under
    ``ignem.master.*`` (shared with the rest of the cluster when built
    through :class:`~repro.cluster.Cluster`), read via
    ``master.metrics.value("ignem.master.<event>")``.
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
        self.env = env
        self.namenode = namenode
        self.rng = rng or RandomSource(0)
        self.config = config or IgnemConfig()
        self.metrics = registry or MetricsRegistry()
        #: Message transport carrying master→slave commands through the
        #: ``slave/<node>`` endpoints.
        self.transport = transport
        self.alive = True
        #: Bumped whenever the master dies or restarts; a command timer
        #: armed under an older incarnation is dropped when it fires.
        self._incarnation = 0

        self._slaves: Dict[str, IgnemSlave] = {}
        #: (job_id, block_id) -> slave nodes chosen for its migration, so
        #: eviction commands go exactly where the block went.
        self._assignments: Dict[Tuple[str, str], Tuple[str, ...]] = {}
        #: Fault hook (set by the fault injector): called with the target
        #: node per delivery attempt; returning ``"lost"`` drops that
        #: attempt.  ``None`` is the zero-overhead clean path.
        self.rpc_fault: Optional[Callable[[str], Optional[str]]] = None
        #: Command-boundary tap (set by the DST differential checker):
        #: called as ``tap(node, kind, command, slave)`` after every
        #: *accepted* delivery, i.e. at the exact boundary where the
        #: slave's synchronous state change (reference-list update, queue
        #: insert) has just happened.  ``None`` is the clean path.
        self.command_tap: Optional[Callable] = None
        #: Slave-state-loss tap (set by the DST differential checker):
        #: called as ``tap(node)`` whenever the master forgets a slave's
        #: routing state (crash, decommission, cold-restart purge) — the
        #: boundary where a later duplicate migrate may legitimately pick
        #: a fresh replica.  ``None`` is the clean path.
        self.failure_tap: Optional[Callable] = None
        #: Observability facade; ``None`` is the zero-overhead clean path.
        self.obs = None

        # The registry counters are shared instruments: an HA pair
        # reporting into one registry naturally sums into cluster-wide
        # totals.
        metrics = self.metrics
        self._c_migration_requests = metrics.counter(
            "ignem.master.migration_requests"
        )
        self._c_eviction_requests = metrics.counter(
            "ignem.master.eviction_requests"
        )
        self._c_promotion_requests = metrics.counter(
            "ignem.master.promotion_requests"
        )
        self._c_demotion_requests = metrics.counter(
            "ignem.master.demotion_requests"
        )
        self._c_sent = metrics.counter("ignem.master.commands_sent")
        self._c_retries = metrics.counter("ignem.master.command_retries")
        self._c_rerouted = metrics.counter("ignem.master.commands_rerouted")
        self._c_abandoned = metrics.counter("ignem.master.commands_abandoned")

    # -- topology -----------------------------------------------------------------

    def attach_slave(self, slave: IgnemSlave) -> None:
        if slave.name in self._slaves:
            raise ValueError(f"duplicate slave {slave.name!r}")
        self._slaves[slave.name] = slave

    def slave(self, node: str) -> IgnemSlave:
        return self._slaves[node]

    def slaves(self) -> List[IgnemSlave]:
        return list(self._slaves.values())

    # -- client API -----------------------------------------------------------------

    def request_migration(
        self,
        paths: Sequence[str],
        job_id: str,
        implicit_eviction: bool = False,
        dst_tier: Optional[str] = None,
    ) -> None:
        """Handle a job submitter's migrate call.

        ``dst_tier`` names the tier the job's blocks should land in;
        ``None`` uses the configured default (``mem`` — the paper's
        design).  Requests to a dead master are lost (the client retries
        against the replacement master in a real deployment; the paper
        accepts the temporary performance loss, III-A5).
        """
        if not self.alive:
            return
        dst_tier = self._destination(dst_tier)
        self._c_migration_requests.inc()
        namenode = self.namenode
        blocks = [block for path in paths for block in namenode.file_blocks(path)]
        self._migrate_blocks(
            blocks,
            job_id,
            namenode.total_bytes(paths),
            implicit_eviction,
            dst_tier,
        )

    def request_block_migration(
        self,
        blocks: Sequence["Block"],
        owner: str,
        dst_tier: Optional[str] = None,
    ) -> None:
        """Hint-free promotion path: migrate specific blocks for ``owner``.

        Unlike :meth:`request_migration` this is not tied to a job's
        submission hint — the popularity-driven policy names individual
        hot blocks directly and owns their references under a pseudo job
        id (``owner``).  Replica choice, eviction routing, retry/reroute,
        and the command tap are all shared with the hint path, so the
        differential model and fault machinery see ordinary commands.
        """
        if not self.alive:
            return
        dst_tier = self._destination(dst_tier)
        self._c_promotion_requests.inc()
        # The promotion wave is priced like one small job: policies that
        # favor small inputs treat a batch of hot blocks as a unit.
        total_bytes = sum(block.nbytes for block in blocks)
        is_block = self.namenode.is_block
        # A block whose file was deleted since the heat sample is skipped.
        live = [block for block in blocks if is_block(block.block_id)]
        self._migrate_blocks(live, owner, total_bytes, False, dst_tier)

    def request_block_eviction(
        self, block_ids: Sequence[str], owner: str
    ) -> None:
        """Demote specific blocks promoted under ``owner`` (cooled heat)."""
        if not self.alive:
            return
        self._c_demotion_requests.inc()
        self._evict_blocks(block_ids, owner)

    def request_eviction(self, paths: Sequence[str], job_id: str) -> None:
        """Handle a job submitter's evict call (job completed)."""
        if not self.alive:
            return
        self._c_eviction_requests.inc()
        namenode = self.namenode
        self._evict_blocks(
            [
                block.block_id
                for path in paths
                if namenode.exists(path)
                for block in namenode.file_blocks(path)
            ],
            job_id,
        )

    def _destination(self, dst_tier: Optional[str]) -> str:
        """``dst_tier``, or the configured default when ``None``;
        rejects a tier that is not a migration destination."""
        if dst_tier is None:
            return self.config.migration_tier
        if dst_tier not in self.config.destination_tiers():
            raise ValueError(
                f"{dst_tier!r} is not a configured migration destination "
                f"(destinations: {', '.join(self.config.destination_tiers())})"
            )
        return dst_tier

    def _migrate_blocks(
        self,
        blocks: Sequence[Block],
        job_id: str,
        job_input_bytes: float,
        implicit_eviction: bool,
        dst_tier: str,
    ) -> None:
        """Choose replicas for ``blocks`` under ``job_id`` and send each
        chosen slave one batched migrate command."""
        submitted_at = self.env.now
        namenode = self.namenode
        slaves = self._slaves
        assignments = self._assignments
        batches: Dict[str, List[MigrationWorkItem]] = {}
        order_hint = 0
        for block in blocks:
            locations = namenode.get_block_locations(block.block_id)
            usable = [node for node in locations if node in slaves]
            if not usable:
                continue
            key = (job_id, block.block_id)
            previous = [
                node for node in assignments.get(key, ()) if node in usable
            ]
            if previous:
                # A duplicate migrate call (client retry) must reuse the
                # earlier replica choice, or the eviction would only
                # reach the latest choice and leak the first.
                chosen_nodes = previous
            else:
                count = min(self.config.replicas_to_migrate, len(usable))
                chosen_nodes = self.rng.sample(sorted(usable), count)
            # Eviction routing remembers every chosen holder.
            assignments[key] = tuple(chosen_nodes)
            for chosen in chosen_nodes:
                batches.setdefault(chosen, []).append(
                    MigrationWorkItem(
                        block=block,
                        job_id=job_id,
                        job_input_bytes=job_input_bytes,
                        job_submitted_at=submitted_at,
                        implicit_eviction=implicit_eviction,
                        order_hint=order_hint,
                        dst_tier=dst_tier,
                    )
                )
            order_hint += 1

        for node, items in batches.items():
            self._send(node, "migrate", MigrateCommand(job_id, tuple(items)))

    def _evict_blocks(self, block_ids: Sequence[str], job_id: str) -> None:
        """Send every slave that holds a block of ``block_ids`` for
        ``job_id`` one batched evict command."""
        batches: Dict[str, List[str]] = {}
        for block_id in block_ids:
            nodes = self._assignments.pop((job_id, block_id), ())
            for node in nodes:
                if node in self._slaves:
                    batches.setdefault(node, []).append(block_id)
        for node, ids in batches.items():
            self._send(node, "evict", EvictCommand(job_id, tuple(ids)))

    # -- failure handling -----------------------------------------------------------

    def fail(self) -> None:
        """The master process dies; in-flight state is gone, including
        commands still waiting on a timer."""
        self.alive = False
        self._incarnation += 1
        self._assignments.clear()

    def restart(self) -> None:
        """A replacement master starts with empty state; slaves purge
        their reference lists to stay consistent with it (III-A5)."""
        self.alive = True
        self._incarnation += 1
        for name in self._slaves:
            self.transport.send(
                f"slave/{name}", FailoverMsg(generation=0, active="master")
            )
            if self.failure_tap is not None:
                self.failure_tap(name)

    def handle_slave_failure(self, node: str) -> None:
        """Forget routing state for a crashed slave: its queue and
        reference lists died with the process, so eviction commands must
        not target it and a duplicate migrate call may pick a fresh
        replica (crash-safe migration-queue abandonment)."""
        if self.failure_tap is not None:
            self.failure_tap(node)
        stale = [
            (key, nodes)
            for key, nodes in self._assignments.items()
            if node in nodes
        ]
        for key, nodes in stale:
            remaining = tuple(n for n in nodes if n != node)
            if remaining:
                self._assignments[key] = remaining
            else:
                del self._assignments[key]

    # -- RPC ---------------------------------------------------------------------------

    def _send(
        self,
        node: str,
        kind: str,
        command,
        tried: FrozenSet[str] = frozenset(),
    ) -> None:
        """Ship one batched command; it arrives ``RPC_LATENCY`` later.

        Delivery is acknowledged: an unacked command (slave down or
        message lost) is retried with timeout + exponential backoff, and
        after ``COMMAND_MAX_RETRIES`` the failure handler re-routes or
        abandons the work (see :class:`_CommandTimer`).  ``tried``
        carries the nodes already attempted for this work so a re-route
        never bounces between dead slaves.
        """
        self._c_sent.inc()
        if self.obs is not None:
            self.obs.on_master_command("sent", node, kind, command.job_id)
        _CommandTimer(self, node, kind, command, tried)

    def _deliver(self, node: str, kind: str, command) -> bool:
        slave = self._slaves[node]
        # The command ships as a protocol message through the slave's
        # transport endpoint.  SimTransport delivers the original command
        # object synchronously, so ordering, acknowledgement semantics,
        # and the tap boundary are exactly those of a direct call.
        msg = MigrateMsg(command) if kind == "migrate" else EvictMsg(command)
        try:
            accepted = self.transport.request(f"slave/{node}", msg).ok
        except NetworkError:
            accepted = False
        if accepted and self.command_tap is not None:
            self.command_tap(node, kind, command, slave)
        return accepted

    def handle_message(self, msg):
        """The ``"master"`` transport endpoint (client-facing requests)."""
        return dispatch_master_message(self, msg)

    def _command_failed(
        self, node: str, kind: str, command, tried: FrozenSet[str]
    ) -> None:
        """All retries exhausted: the slave is down or unreachable."""
        if not self.alive:
            return
        tried = tried | {node}
        if kind == "evict":
            # The dead slave's restart purges its references anyway
            # (III-A5), so the eviction is moot — just drop it.
            self._c_abandoned.inc()
            if self.obs is not None:
                self.obs.on_master_command(
                    "abandoned", node, kind, command.job_id
                )
            return
        self._reroute_migration(node, command, tried)

    def _reroute_migration(
        self, failed_node: str, command, tried: FrozenSet[str]
    ) -> None:
        """Graceful degradation (III-A5): re-route each block's migration
        to another live replica holder; blocks with no live untried
        replica are abandoned and their routing state dropped."""
        namenode = self.namenode
        slaves = self._slaves
        batches: Dict[str, List[MigrationWorkItem]] = {}
        for item in command.items:
            key = (command.job_id, item.block_id)
            kept = tuple(
                n for n in self._assignments.get(key, ()) if n != failed_node
            )
            usable = [
                n
                for n in namenode.get_block_locations(item.block_id)
                if n in slaves and n not in tried and slaves[n].alive
            ]
            if not usable:
                # Crash-safe abandonment: forget the routing entry rather
                # than leak it (the job will read from disk instead).
                if kept:
                    self._assignments[key] = kept
                else:
                    self._assignments.pop(key, None)
                self._c_abandoned.inc()
                if self.obs is not None:
                    self.obs.on_master_command(
                        "abandoned", failed_node, "migrate", command.job_id
                    )
                continue
            chosen = self.rng.choice(sorted(usable))
            if chosen in kept:
                # Another replica of this block is already migrating.
                self._assignments[key] = kept
                continue
            self._assignments[key] = kept + (chosen,)
            batches.setdefault(chosen, []).append(item)
        for new_node, items in batches.items():
            self._c_rerouted.inc()
            if self.obs is not None:
                self.obs.on_master_command(
                    "rerouted", new_node, "migrate", command.job_id
                )
            self._send(
                new_node,
                "migrate",
                MigrateCommand(command.job_id, tuple(items)),
                tried=tried,
            )


class _CommandTimer:
    """One master→slave command in flight, driven by timer callbacks.

    Each attempt decides through ``rpc_fault`` whether it is lost when it
    is sent, and arrives ``RPC_LATENCY`` later.  A lost or refused
    attempt arms the next one after ``COMMAND_TIMEOUT + COMMAND_BACKOFF *
    COMMAND_BACKOFF_FACTOR ** attempt``; after ``COMMAND_MAX_RETRIES``
    retries the master's failure handler re-routes or abandons the work.
    A fault-free command therefore costs one kernel event.  A timer whose
    master has died, or restarted, since the command was sent neither
    delivers nor retries: its routing state died with that incarnation.
    """

    __slots__ = (
        "master",
        "node",
        "kind",
        "command",
        "tried",
        "incarnation",
        "attempt",
        "lost",
    )

    def __init__(
        self,
        master: IgnemMaster,
        node: str,
        kind: str,
        command,
        tried: FrozenSet[str],
    ):
        self.master = master
        self.node = node
        self.kind = kind
        self.command = command
        self.tried = tried
        self.incarnation = master._incarnation
        self.attempt = 0
        self.lost = self._lost()
        master.env.timeout(RPC_LATENCY).callbacks.append(self._arrive)

    def _lost(self) -> bool:
        fault = self.master.rpc_fault
        return fault is not None and fault(self.node) == "lost"

    def _stale(self) -> bool:
        master = self.master
        return not master.alive or master._incarnation != self.incarnation

    def _arrive(self, _event) -> None:
        if self._stale():
            return
        master = self.master
        if not self.lost and master._deliver(self.node, self.kind, self.command):
            return
        attempt = self.attempt
        if attempt >= COMMAND_MAX_RETRIES:
            master._command_failed(self.node, self.kind, self.command, self.tried)
            return
        master._c_retries.inc()
        if master.obs is not None:
            master.obs.on_master_command(
                "retry", self.node, self.kind, self.command.job_id
            )
        master.env.timeout(
            COMMAND_TIMEOUT + COMMAND_BACKOFF * COMMAND_BACKOFF_FACTOR**attempt
        ).callbacks.append(self._retry)

    def _retry(self, _event) -> None:
        if self._stale():
            return
        self.attempt += 1
        self.lost = self._lost()
        self.master.env.timeout(RPC_LATENCY).callbacks.append(self._arrive)
