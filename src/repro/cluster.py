"""Cluster assembly: wire devices, DFS, scheduler, engine, and Ignem.

:class:`Cluster` builds the paper's 8-server testbed (Section IV-A) — or
any size — in one call, and exposes the three evaluation configurations:

* plain HDFS (default; Ignem disabled),
* ``enable_ignem()`` — Ignem master in the NameNode, slaves in DataNodes,
* ``pin_all_inputs()`` — the HDFS-Inputs-in-RAM baseline (vmtouch).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .core.config import IgnemConfig
from .core.master import IgnemMaster
from .core.slave import IgnemSlave, slave_record_counters
from .dfs.client import DFSClient
from .dfs.datanode import DataNode
from .dfs.namenode import NameNode
from .dfs.replication import ReplicationMonitor
from .mapreduce.engine import MapReduceEngine
from .mapreduce.spec import EngineConfig
from .metrics.collector import MetricsCollector
from .net.network import Network
from .obs import Observability, ObservabilityConfig
from .sim.engine import Environment
from .sim.rand import RandomSource
from .storage.device import GB, MB
from .storage.presets import TIER_PRESETS, tier_preset
from .storage.tiers import build_tier_set
from .transport.sim import SimTransport



@dataclass(frozen=True)
class ClusterConfig:
    """Testbed shape; defaults mirror the paper's 8-server cluster."""

    num_nodes: int = 8
    slots_per_node: int = 8
    disk_capacity: float = 1024 * GB
    #: Storage-hierarchy preset name (see ``repro.storage.TIER_PRESETS``):
    #: ``"mem-hdd"`` is the paper's testbed, ``"mem-ssd"`` puts the
    #: backing store on SSD, ``"mem-ssd-hdd"`` adds a middle SSD tier.
    tier_preset: str = "mem-hdd"
    block_size: float = 64 * MB
    replication: int = 3
    seed: int = 0
    engine: EngineConfig = field(default_factory=EngineConfig)
    #: Structured tracing + metrics (disabled by default; see
    #: :class:`repro.obs.ObservabilityConfig`).
    observability: ObservabilityConfig = field(
        default_factory=ObservabilityConfig
    )

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")
        if not self.disk_capacity > 0:
            raise ValueError("disk_capacity must be positive")
        if not self.block_size > 0:
            raise ValueError("block_size must be positive")
        if self.tier_preset not in TIER_PRESETS:
            known = ", ".join(sorted(TIER_PRESETS))
            raise ValueError(
                f"unknown tier_preset {self.tier_preset!r} (known: {known})"
            )

    def tier_specs(self):
        """The resolved tier hierarchy (a tuple of ``TierSpec``)."""
        return tier_preset(self.tier_preset)


class Cluster:
    """A fully wired simulated big-data cluster."""

    def __init__(self, config: Optional[ClusterConfig] = None):
        self.config = config or ClusterConfig()
        cfg = self.config
        self.env = Environment()
        self.rng = RandomSource(cfg.seed)
        self.collector = MetricsCollector()

        self.network = Network(self.env)
        #: The control-plane message transport: client and heat-policy
        #: requests to ``"master"`` and the master's commands and
        #: failover notices to ``"slave/<n>"`` are protocol messages
        #: through here; the sim backend delivers synchronously in
        #: direct-call order, so the default configuration stays
        #: byte-identical.
        self.transport = SimTransport()
        self.namenode = NameNode(
            rng=self.rng.spawn("placement"),
            block_size=cfg.block_size,
            replication=cfg.replication,
        )

        # Local import to avoid a cycle (scheduler has no deps on cluster).
        from .scheduler.node_manager import HEARTBEAT_INTERVAL, NodeManager
        from .scheduler.resource_manager import ResourceManager

        # Push-based memory-locality metadata: DataNode caches publish
        # residency deltas into the NameNode's index, and the scheduler's
        # per-node candidate buckets subscribe to the same feed.
        self.rm = ResourceManager(
            self.env, locality_index=self.namenode.locality_index
        )
        self.datanodes: Dict[str, DataNode] = {}
        stagger = HEARTBEAT_INTERVAL / max(1, cfg.num_nodes)
        for index in range(cfg.num_nodes):
            name = f"node{index}"
            self.network.add_node(name)
            datanode = self._build_datanode(name)
            self.namenode.register_datanode(datanode)
            self.datanodes[name] = datanode
            self.rm.register_node(
                NodeManager(
                    self.env,
                    name,
                    slots=cfg.slots_per_node,
                    heartbeat_offset=index * stagger,
                )
            )

        self.client = DFSClient(
            self.env, self.namenode, self.network, rng=self.rng.spawn("client")
        )
        self.client.transport = self.transport
        self.engine = MapReduceEngine(
            self.env, self.client, self.rm, self.collector, cfg.engine
        )

        self.ignem_master: Optional[IgnemMaster] = None
        self.ignem_slaves: Dict[str, IgnemSlave] = {}
        self.replication_monitor: Optional[ReplicationMonitor] = None
        self._ignem_config: Optional[IgnemConfig] = None
        #: Hint-free popularity-driven policy (``enable_heat_migration``).
        self.heat_migrator = None
        #: Nodes released by a completed decommission: their entry stays
        #: in :attr:`datanodes` (counters/devices remain inspectable) but
        #: they are gone from the namespace, network, and scheduler.
        self.released_nodes: set = set()
        #: ``(sim_time, node)`` per completed decommission, in order.
        self.decommission_log: List[tuple] = []
        self._decommission_watch: set = set()

        #: Observability facade: the metrics registry is always live
        #: (passive bookkeeping); a ``trace_path`` activates tracing.
        self.obs = Observability(self.env, cfg.observability)
        self.obs.register_cluster_pulls(self)
        if cfg.observability.trace_path is not None:
            self.obs.activate()
            self.obs.attach(self)

    def _build_datanode(self, name: str) -> DataNode:
        """Construct one DataNode per the cluster config.  Device
        construction order (bottom-up) and names are part of the
        deterministic clean-path contract; ``build_tier_set`` fixes both."""
        cfg = self.config
        specs = cfg.tier_specs()
        bottom = min(specs, key=lambda spec: spec.height)
        # Upper tiers hold their preset's capacity (the paper's 128GB of
        # RAM; 256GB for a middle SSD).
        capacities = {bottom.name: cfg.disk_capacity}
        return DataNode(
            self.env,
            name,
            tiers=build_tier_set(self.env, specs, name, capacities),
            disk_capacity=cfg.disk_capacity,
        )

    @property
    def metrics(self):
        """The cluster-wide :class:`~repro.obs.MetricsRegistry`."""
        return self.obs.registry

    # -- configurations -------------------------------------------------------------

    def enable_ignem(
        self, config: Optional[IgnemConfig] = None, ha: bool = False
    ):
        """Attach an Ignem master and one slave per DataNode.

        With ``ha=True`` a primary/standby master pair (paper III-A5's
        backup-master option) serves requests instead of a single master;
        the pair is returned and also stored as :attr:`ignem_master`.
        """
        if self.ignem_master is not None:
            raise RuntimeError("Ignem is already enabled on this cluster")
        ignem_config = config or IgnemConfig()
        self._ignem_config = ignem_config
        if ha:
            from .core.ha import HighAvailabilityMaster

            master = HighAvailabilityMaster(
                self.env,
                self.namenode,
                rng=self.rng.spawn("ignem-master"),
                config=ignem_config,
                registry=self.obs.registry,
                transport=self.transport,
            )
        else:
            master = IgnemMaster(
                self.env,
                self.namenode,
                rng=self.rng.spawn("ignem-master"),
                config=ignem_config,
                registry=self.obs.registry,
                transport=self.transport,
            )
        self.transport.register("master", master.handle_message)
        # The ``ignem.slave.*`` instruments that count migration and
        # eviction records are kept from the collector's record stream.
        self.collector.subscribe(slave_record_counters(self.obs.registry))
        #: Cluster-wide per-tier occupancy, maintained incrementally by
        #: every slave's accounting deltas (O(1) per event).
        self.tier_totals: Dict[str, float] = {}
        for name, datanode in self.datanodes.items():
            slave = IgnemSlave(
                self.env,
                datanode,
                self.rm,
                ignem_config,
                self.collector,
                registry=self.obs.registry,
                tier_accumulator=self.tier_totals,
            )
            master.attach_slave(slave)
            self.ignem_slaves[name] = slave
            self.transport.register(f"slave/{name}", slave.handle_message)
        self.client.ignem_master = master
        self.ignem_master = master
        # Per-destination-tier occupancy, visible in every metrics
        # snapshot (pull metrics: zero hot-path cost).
        registry = self.obs.registry
        totals = self.tier_totals
        for tier in ignem_config.destination_tiers():
            registry.register_pull(
                f"ignem.slave.tier.{tier}.resident_bytes",
                lambda tier=tier: totals.get(tier, 0.0),
            )
        if self.obs.active:
            self.obs.attach_ignem(master, self.ignem_slaves)
        return master

    def enable_heat_migration(self, config=None):
        """Attach the hint-free popularity-driven migration policy.

        Requires Ignem (:meth:`enable_ignem` first): promotions flow
        through the ordinary master/slave machinery under a synthetic
        owner job.  The policy observes every client block read via the
        NameNode's read-event hook, promotes blocks whose decayed heat
        crosses the threshold, and demotes them when they cool.  Pass a
        :class:`~repro.core.heat.HeatConfig` to tune it.
        """
        if self.ignem_master is None:
            raise RuntimeError(
                "enable_ignem() before enable_heat_migration()"
            )
        if self.heat_migrator is not None:
            raise RuntimeError(
                "heat migration is already enabled on this cluster"
            )
        from .core.heat import PopularityMigrator

        migrator = PopularityMigrator(
            self.env,
            self.namenode,
            self.rm,
            config=config,
            registry=self.obs.registry,
            default_tier=self._ignem_config.migration_tier,
            transport=self.transport,
        )
        self.heat_migrator = migrator
        self.namenode.subscribe_reads(migrator.on_read)
        migrator.start()
        return migrator

    def enable_rereplication(self) -> ReplicationMonitor:
        """Attach the self-healing replication monitor.  :meth:`fail_node`,
        :meth:`restart_node`, :meth:`add_datanode`, and
        :meth:`decommission` notify it automatically; its copy limits and
        retry timing are the constants in :mod:`repro.dfs.replication`."""
        if self.replication_monitor is None:
            self.replication_monitor = ReplicationMonitor(
                self.env,
                self.namenode,
                self.network,
                rng=self.rng.spawn("re-replication"),
                registry=self.obs.registry,
            )
            monitor = self.replication_monitor
            self.obs.registry.register_pull(
                "dfs.repair.under_replicated_blocks",
                lambda: len(monitor.under_replicated_blocks()),
            )
            if self.obs.active:
                monitor.obs = self.obs
        return self.replication_monitor

    # -- elasticity -----------------------------------------------------------------

    def add_datanode(self, name: Optional[str] = None) -> DataNode:
        """Grow the cluster by one live node (elasticity join).

        The node gets the same device stack, scheduler slots, and Ignem
        slave (when Ignem is enabled) as the original nodes, starts
        heartbeating on the shared stagger grid, and — when the
        replication monitor is enabled — attracts background rebalancing
        until it carries its fair share of replicas."""
        cfg = self.config
        if name is None:
            index = len(self.datanodes)
            while f"node{index}" in self.datanodes:
                index += 1
            name = f"node{index}"
        if name in self.datanodes:
            raise ValueError(f"node name {name!r} already exists")
        from .scheduler.node_manager import HEARTBEAT_INTERVAL, NodeManager

        self.network.add_node(name)
        datanode = self._build_datanode(name)
        self.namenode.register_datanode(datanode)
        self.datanodes[name] = datanode
        stagger = HEARTBEAT_INTERVAL / max(1, cfg.num_nodes)
        self.rm.register_node(
            NodeManager(
                self.env,
                name,
                slots=cfg.slots_per_node,
                heartbeat_offset=(len(self.datanodes) - 1) * stagger,
            )
        )
        if self.ignem_master is not None:
            slave = IgnemSlave(
                self.env,
                datanode,
                self.rm,
                self._ignem_config,
                self.collector,
                registry=self.obs.registry,
                tier_accumulator=self.tier_totals,
            )
            self.ignem_master.attach_slave(slave)
            self.ignem_slaves[name] = slave
            self.transport.register(f"slave/{name}", slave.handle_message)
            if self.obs.active:
                slave.obs = self.obs
        if self.obs.active:
            self.obs.attach_datanode(self, name)
        if self.replication_monitor is not None:
            self.replication_monitor.handle_node_join(name)
        return datanode

    def decommission(self, name: str):
        """Gracefully drain ``name`` and release it once every resident
        block is safe elsewhere.  Returns the drain-completion
        :class:`~repro.sim.events.Event`; the release itself (DataNode,
        slave, NodeManager, NIC teardown and namespace removal) runs
        automatically when the drain finishes."""
        if name not in self.datanodes:
            raise ValueError(f"unknown node {name!r}")
        if name in self.released_nodes:
            raise RuntimeError(f"{name} is already decommissioned")
        monitor = self.enable_rereplication()
        done = monitor.decommission(name)
        if name not in self._decommission_watch:
            self._decommission_watch.add(name)
            done.callbacks.append(lambda _event: self._release_node(name))
        return done

    def _release_node(self, name: str) -> None:
        """Final decommission step: tear the node down like a failure —
        but only after the drain guaranteed no block drops below its
        replication target — then drop it from the namespace map."""
        if name in self.released_nodes:
            return
        self.released_nodes.add(name)
        self.decommission_log.append((self.env.now, name))
        self._decommission_watch.discard(name)
        if name in self.ignem_slaves:
            self.ignem_slaves[name].decommission()
        self.datanodes[name].fail()
        self.network.fail_node(name)
        if self.ignem_master is not None:
            self.ignem_master.handle_slave_failure(name)
        for node_manager in self.rm.nodes():
            if node_manager.name == name:
                node_manager.fail()
        self.namenode.remove_datanode(name)
        if self.replication_monitor is not None:
            self.replication_monitor.retry_stalled()

    def fail_node(self, name: str) -> None:
        """Kill a whole server: DataNode, Ignem slave, NodeManager, and
        NIC.  In-flight transfers through the node fail deterministically,
        the buffer-cache flush publishes residency deltas (no stale
        memory-locality index entries), the Ignem master drops its routing
        state for the node, and re-replication is triggered when the
        monitor is enabled."""
        if name in self.released_nodes:
            return  # already torn down by a completed decommission
        if name in self.ignem_slaves:
            self.ignem_slaves[name].fail()
        self.datanodes[name].fail()
        self.network.fail_node(name)
        if self.ignem_master is not None:
            self.ignem_master.handle_slave_failure(name)
        for node_manager in self.rm.nodes():
            if node_manager.name == name:
                node_manager.fail()
        if self.replication_monitor is not None:
            self.replication_monitor.handle_node_failure(name)

    def restart_node(self, name: str) -> None:
        """Bring a failed server back: the DataNode, slave, and
        NodeManager processes restart with empty in-memory state; disk
        blocks survive (paper III-A5)."""
        if name in self.released_nodes:
            raise RuntimeError(f"{name} was decommissioned; it cannot restart")
        self.datanodes[name].restart()
        self.network.restore_node(name)
        if name in self.ignem_slaves:
            self.ignem_slaves[name].restart()
        for node_manager in self.rm.nodes():
            if node_manager.name == name:
                node_manager.restart()
        if self.replication_monitor is not None:
            self.replication_monitor.handle_node_restart(name)

    def pin_all_inputs(self, paths: Optional[Sequence[str]] = None) -> None:
        """The vmtouch baseline: lock every (or the given) input file's
        blocks into the cache of every replica holder before the run."""
        targets = paths if paths is not None else self.namenode.list_files()
        for path in targets:
            for block in self.namenode.file_blocks(path):
                for node in self.namenode.get_block_locations(block.block_id):
                    datanode = self.datanodes[node]
                    datanode.cache.insert(block.block_id, block.nbytes, pinned=True)

    def flush_caches(self) -> None:
        """Drop every node's buffer cache (the paper flushes before runs)."""
        for datanode in self.datanodes.values():
            datanode.cache.flush_all()

    # -- convenience -------------------------------------------------------------------

    def run(self, until=None):
        """Advance the simulation (see :meth:`Environment.run`).

        With ``ObservabilityConfig(trace_path=..., metrics_path=...)``
        the JSONL trace and the metrics snapshot are written there when
        this run returns.
        """
        result = self.env.run(until=until)
        obs = self.obs
        obs_cfg = self.config.observability
        if obs_cfg.trace_path is not None:
            obs.tracer.dump(obs_cfg.trace_path)
        if obs_cfg.metrics_path is not None:
            obs.registry.write(obs_cfg.metrics_path)
        return result

    def node_names(self) -> List[str]:
        return sorted(self.datanodes.keys())


def build_paper_testbed(
    seed: int = 0,
    ignem: bool = False,
    ignem_config: Optional[IgnemConfig] = None,
    engine_config: Optional[EngineConfig] = None,
    **overrides,
) -> Cluster:
    """One-call construction of the paper's evaluation cluster."""
    kwargs = dict(seed=seed)
    if engine_config is not None:
        kwargs["engine"] = engine_config
    kwargs.update(overrides)
    cluster = Cluster(ClusterConfig(**kwargs))
    if ignem:
        cluster.enable_ignem(ignem_config)
    return cluster
