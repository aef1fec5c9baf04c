"""The observability facade: one object bundling registry + tracer.

A :class:`Observability` instance is created by every
:class:`~repro.cluster.Cluster` (the registry side is always live — it
is pure bookkeeping).  Tracing is opt-in: :meth:`Observability.activate`
builds the :class:`~repro.obs.trace.Tracer` and :meth:`attach` threads
span/instant emission hooks through the cluster's layers — storage
devices, buffer caches, network, DFS client, scheduler, Ignem
master/slaves, and (when ``ObservabilityConfig.sim_events`` is set)
the event-dispatch kernel itself.  Job, task, migration and eviction events
are derived from the cluster's :class:`~repro.metrics.MetricsCollector`
records through one subscribed listener.

Components carry a plain ``obs`` attribute that stays ``None`` on the
clean path; every hot-path hook is a single ``is None`` check, which is
how the disabled configuration keeps bit-identical outputs and
near-zero overhead.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..metrics.records import EvictionRecord, JobRecord, MigrationRecord, TaskRecord
from ..sim.events import Event
from ..sim.process import Process
from .config import ObservabilityConfig
from .registry import MetricsRegistry
from .trace import Tracer

#: The unbound Process wakeup method; the kernel monitor classifies
#: callbacks against it to count process wakeups without touching the
#: clean-path run loop.
_RESUME = Process._resume


def _fmt_tag(tag) -> str:
    """Deterministic, compact rendering of transfer tags for trace args."""
    if type(tag) is str:
        return tag
    if tag is None:
        return ""
    if isinstance(tag, tuple):
        return ":".join(str(part) for part in tag)
    return str(tag)


class _KernelMonitor:
    """Per-dispatch hook installed on the Environment (``sim_events`` only).

    Counts every dispatched event and every process wakeup; optionally
    emits an instant trace event per dispatch.  This is the one piece of
    instrumentation that scales with raw kernel event volume, which is
    why it is off unless ``ObservabilityConfig.sim_events`` is set.
    """

    __slots__ = ("_dispatches", "_wakeups", "_tracer")

    def __init__(self, registry: MetricsRegistry, tracer: Optional[Tracer]):
        self._dispatches = registry.counter("sim.events_dispatched")
        self._wakeups = registry.counter("sim.process_wakeups")
        self._tracer = tracer

    def __call__(self, when: float, event, callbacks) -> None:
        self._dispatches.inc()
        wakeups = 0
        for callback in callbacks:
            if getattr(callback, "__func__", None) is _RESUME:
                wakeups += 1
        if wakeups:
            self._wakeups.inc(wakeups)
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                "sim.dispatch",
                "sim",
                lane="kernel",
                args={"type": type(event).__name__, "callbacks": len(callbacks)},
                ts=when,
            )


class Observability:
    """Registry + optional tracer behind the cluster's instrumentation API.

    Lifecycle::

        obs = Observability(env)          # registry live, tracer off
        obs.activate()                    # build the tracer
        obs.attach(cluster)               # wire hooks through the stack
        ... run ...
        obs.tracer.dump("trace.jsonl")
        obs.registry.write("metrics.json")

    :class:`repro.cluster.Cluster` drives all of this from its
    :class:`~repro.obs.ObservabilityConfig`.
    """

    def __init__(
        self,
        env,
        config: Optional[ObservabilityConfig] = None,
    ):
        self.env = env
        self.config = config or ObservabilityConfig()
        self.registry = MetricsRegistry()
        self.tracer: Optional[Tracer] = None
        self._attached = False
        # Instruments bound lazily at activate()/attach() time.
        self._h_net = None
        self._h_dfs = None
        self._h_sched_wait = None
        self._h_job = None
        self._h_map = None
        self._h_reduce = None

    @property
    def active(self) -> bool:
        """Whether tracing instrumentation is live."""
        return self.tracer is not None

    def activate(self) -> Tracer:
        """Build the tracer (idempotent); returns it."""
        if self.tracer is None:
            self.tracer = Tracer(self.env)
        return self.tracer

    # -- wiring ------------------------------------------------------------------

    def attach(self, cluster) -> None:
        """Thread instrumentation hooks through an assembled cluster.

        Requires :meth:`activate` first; idempotent.  Components touched:
        every DataNode's disk/ram devices, buffer caches and NIC, the
        network, DFS client, ResourceManager, the metrics collector, the
        Ignem master/slaves when enabled, and the sim kernel when
        ``sim_events`` is set.
        """
        if self.tracer is None:
            raise RuntimeError("call activate() before attach()")
        if self._attached:
            return
        self._attached = True
        tracer = self.tracer
        registry = self.registry

        self._h_net = registry.histogram("net.transfer_seconds")
        self._h_dfs = registry.histogram("dfs.read_seconds")
        self._h_sched_wait = registry.histogram("scheduler.queue_wait_seconds")
        self._h_job = registry.histogram("mapreduce.job_seconds")
        self._h_map = registry.histogram("mapreduce.map_seconds")
        self._h_reduce = registry.histogram("mapreduce.reduce_seconds")

        if self.config.sim_events:
            cluster.env.monitor = _KernelMonitor(registry, tracer)

        for name in sorted(cluster.datanodes):
            self.attach_datanode(cluster, name)

        cluster.network.obs = self
        cluster.client.obs = self
        cluster.rm.obs = self
        cluster.collector.subscribe(self._on_record)
        if cluster.ignem_master is not None:
            self.attach_ignem(cluster.ignem_master, cluster.ignem_slaves)
        if cluster.replication_monitor is not None:
            cluster.replication_monitor.obs = self

    def attach_datanode(self, cluster, name: str) -> None:
        """Wire one DataNode's devices, buffer caches and NIC for storage
        tracing: every node at :meth:`attach`, and each node joined
        later (cluster elasticity).  No-op until the cluster has been
        attached."""
        if self.tracer is None or not self._attached:
            return
        datanode = cluster.datanodes[name]
        tiers = datanode.tiers
        # Device lanes keep their historical labels on the default
        # hierarchy: the bottom tier is "disk", the top "ram"; middle
        # tiers (3-tier presets) are labelled by their tier name.
        for tier in tiers:
            if tier is tiers.bottom:
                label = "disk"
            elif tier is tiers.top:
                label = "ram"
            else:
                label = tier.spec.name
            self._attach_device(tier.device, label, name)
        for tier in tiers.upper:
            suffix = "" if tier is tiers.top else f"-{tier.spec.name}"
            self._attach_cache(tier.cache, name, suffix)
        nic = cluster.network._nics.get(name)
        if nic is not None:
            self._attach_device(nic.device, "nic", name)

    def attach_ignem(self, master, slaves) -> None:
        """Wire the Ignem master (or HA pair) and slaves for tracing."""
        master.obs = self
        for name in sorted(slaves):
            slaves[name].obs = self

    def register_cluster_pulls(self, cluster) -> None:
        """Surface the cluster's pre-existing ad-hoc tallies as pull
        metrics, evaluated only at snapshot time (zero hot-path cost).
        Called unconditionally from cluster assembly, so even untraced
        runs get a meaningful metrics snapshot."""
        registry = self.registry
        env = cluster.env
        rm = cluster.rm
        network = cluster.network
        engine = cluster.engine
        datanodes = cluster.datanodes

        registry.register_pull("sim.now", lambda: env.now)
        registry.register_pull(
            "scheduler.tasks_launched", lambda: rm.tasks_launched
        )
        registry.register_pull(
            "scheduler.tasks_finished", lambda: rm.tasks_finished
        )
        registry.register_pull(
            "scheduler.tasks_retried", lambda: rm.tasks_retried
        )
        registry.register_pull(
            "scheduler.tasks_abandoned", lambda: rm.tasks_abandoned
        )
        registry.register_pull(
            "net.transfers_failed", lambda: network.transfers_failed
        )
        registry.register_pull(
            "mapreduce.jobs_submitted", lambda: len(engine.jobs)
        )
        registry.register_pull(
            "cache.hits",
            lambda: sum(dn.cache.hits for dn in datanodes.values()),
        )
        registry.register_pull(
            "cache.misses",
            lambda: sum(dn.cache.misses for dn in datanodes.values()),
        )
        registry.register_pull(
            "cache.evictions",
            lambda: sum(dn.cache.evictions for dn in datanodes.values()),
        )
        registry.register_pull(
            "storage.disk.bytes_moved",
            lambda: sum(dn.disk.bytes_moved for dn in datanodes.values()),
        )
        registry.register_pull(
            "storage.disk.busy_seconds",
            lambda: sum(dn.disk.busy_time for dn in datanodes.values()),
        )
        registry.register_pull(
            "storage.ram.bytes_moved",
            lambda: sum(dn.ram.bytes_moved for dn in datanodes.values()),
        )

    # -- per-component wiring ------------------------------------------------------

    def _attach_device(self, device, label: str, node: str) -> None:
        tracer = self.tracer
        counter = self.registry.counter(f"storage.{label}.transfers")
        nbytes_total = self.registry.counter(f"storage.{label}.bytes")
        hist = self.registry.histogram(f"storage.{label}.transfer_seconds")
        env = self.env
        lane = f"{node}/{label}"

        def on_complete(record):
            counter.inc()
            nbytes_total.inc(record.nbytes)
            start = record.submitted_at
            hist.observe(env.now - start)
            tracer.complete(
                "storage.transfer",
                "storage",
                start,
                lane=lane,
                args={
                    "device": label,
                    "bytes": round(record.nbytes),
                    "tag": _fmt_tag(record.tag),
                },
            )

        device.on_complete = on_complete

    def _attach_cache(self, cache, node: str, suffix: str = "") -> None:
        tracer = self.tracer
        lane = f"{node}/cache{suffix}"

        def on_event(op, key, nbytes):
            tracer.instant(
                f"cache.{op}",
                "storage",
                lane=lane,
                args={"key": _fmt_tag(key), "bytes": round(nbytes)},
            )

        cache.on_event = on_event

    @staticmethod
    def _subscribe(event: Event, fn: Callable[[Event], None]) -> None:
        """Observe an event's completion without changing failure
        semantics: if the observer turns out to be the *only* callback on
        a failed event, re-raise so the kernel still surfaces the
        unhandled failure exactly as it would have untraced."""
        callbacks = event.callbacks
        if callbacks is None:
            fn(event)
            return

        def wrapper(ev, _callbacks=callbacks, _fn=fn):
            _fn(ev)
            if not ev._ok and len(_callbacks) == 1:
                raise ev._value

        callbacks.append(wrapper)

    # -- hook methods called by instrumented components ----------------------------

    def on_net_transfer(self, src, dst, nbytes, tag, legs) -> None:
        """Network.transfer_legs hook: span from issue until the last leg
        completes or the first one fails."""
        tracer = self.tracer
        if tracer is None:
            return
        start = self.env.now
        hist = self._h_net
        env = self.env

        def close(ok):
            if hist is not None and ok:
                hist.observe(env.now - start)
            tracer.complete(
                "net.transfer",
                "net",
                start,
                lane="network",
                args={
                    "src": src,
                    "dst": dst,
                    "bytes": round(nbytes),
                    "tag": _fmt_tag(tag),
                    "ok": ok,
                },
            )

        if not legs:
            close(True)
            return
        pending = [len(legs)]

        def finish(event):
            if not pending[0]:
                return  # an earlier leg failed and closed the span
            pending[0] = pending[0] - 1 if event._ok else 0
            if not pending[0]:
                close(bool(event._ok))

        for leg in legs:
            self._subscribe(leg, finish)

    def on_dfs_read(
        self, source, serving, reader, block, done: Event
    ) -> None:
        """DFSClient.read_block hook: classify + span the read."""
        tracer = self.tracer
        if tracer is None:
            return
        medium = "memory" if source == "ram" else "disk"
        where = "local" if serving == reader else "remote"
        self.registry.counter(f"dfs.reads.{medium}_{where}").inc()
        start = self.env.now
        hist = self._h_dfs
        env = self.env

        def finish(event):
            if hist is not None and event._ok:
                hist.observe(env.now - start)
            tracer.complete(
                "dfs.read",
                "dfs",
                start,
                lane=reader,
                args={
                    "block": block.block_id,
                    "source": f"{medium}_{where}",
                    "serving": serving,
                    "bytes": round(block.nbytes),
                    "ok": bool(event._ok),
                },
            )

        self._subscribe(done, finish)

    def on_task_launch(self, task, node: str) -> None:
        """ResourceManager launch hook: queue-wait + launch instant."""
        tracer = self.tracer
        if tracer is None:
            return
        submitted = task.submitted_at
        waited = 0.0 if submitted is None else self.env.now - submitted
        if self._h_sched_wait is not None:
            self._h_sched_wait.observe(waited)
        tracer.instant(
            "scheduler.launch",
            "scheduler",
            lane=node,
            args={
                "task": task.task_id,
                "job": task.job_id,
                "kind": task.kind,
                "wait": round(waited, 6),
            },
        )

    def _on_record(self, record) -> None:
        """Collector listener: trace one job, task, migration or eviction
        record, and keep the ``mapreduce.*`` counters and histograms."""
        tracer = self.tracer
        kind = type(record)
        if kind is TaskRecord:
            self.registry.counter("mapreduce.tasks_completed").inc()
            hist = self._h_map if record.kind == "map" else self._h_reduce
            hist.observe(record.duration)
            tracer.complete(
                "mapreduce.task",
                "job",
                record.start,
                end=record.end,
                lane=record.node,
                args={"task": record.task_id, "job": record.job_id, "kind": record.kind},
            )
        elif kind is JobRecord:
            self.registry.counter("mapreduce.jobs_completed").inc()
            self._h_job.observe(record.duration)
            tracer.complete(
                "mapreduce.job",
                "job",
                record.submitted_at,
                end=record.end,
                lane="jobs",
                args={
                    "job": record.job_id,
                    "name": record.name,
                    "maps": record.num_maps,
                    "reduces": record.num_reduces,
                    "input_bytes": round(record.input_bytes),
                    "failed": record.failed,
                },
            )
        elif kind is MigrationRecord:
            args = {
                "block": record.block_id,
                "job": record.job_id,
                "bytes": round(record.nbytes),
                "tier": record.tier,
                "outcome": record.outcome,
                "queue_wait": round(record.queue_wait, 6),
            }
            if record.outcome == "completed":
                tracer.complete(
                    "ignem.migration",
                    "ignem",
                    record.start,
                    end=record.end,
                    lane=record.node,
                    args=args,
                )
            else:
                tracer.instant(
                    "ignem.migration",
                    "ignem",
                    lane=record.node,
                    args=args,
                    ts=record.end,
                )
        elif kind is EvictionRecord:
            tracer.instant(
                "ignem.eviction",
                "ignem",
                lane=record.node,
                args={
                    "block": record.block_id,
                    "bytes": round(record.nbytes),
                    "reason": record.reason,
                    "tier": record.tier,
                },
                ts=record.time,
            )

    # -- self-healing replication hooks ------------------------------------------------

    def on_repair_copy(
        self,
        block_id: str,
        source: str,
        targets,
        nbytes: float,
        start: float,
        outcome: str,
        reason: str,
    ) -> None:
        """ReplicationMonitor chain-copy hook: span per pipelined copy."""
        tracer = self.tracer
        if tracer is None:
            return
        tracer.complete(
            "dfs.repair.copy",
            "repair",
            start,
            lane="repair",
            args={
                "block": block_id,
                "source": source,
                "targets": ",".join(targets),
                "bytes": round(nbytes),
                "outcome": outcome,
                "reason": reason,
            },
        )

    def on_repair_drop(self, block_id: str, node: str, reason: str) -> None:
        """Excess-thinning / rebalance-retirement hook."""
        tracer = self.tracer
        if tracer is None:
            return
        tracer.instant(
            "dfs.repair.drop",
            "repair",
            lane="repair",
            args={"block": block_id, "node": node, "reason": reason},
        )

    def on_repair_decommission(
        self, node: str, start: float, blocks_moved: int
    ) -> None:
        """Decommission-drain hook: span from request to full drain."""
        tracer = self.tracer
        if tracer is None:
            return
        tracer.complete(
            "dfs.repair.decommission",
            "repair",
            start,
            lane="repair",
            args={"node": node, "blocks_moved": blocks_moved},
        )

    # -- Ignem hooks ------------------------------------------------------------------

    def on_master_command(self, what: str, node: str, kind: str, job_id: str) -> None:
        """IgnemMaster RPC hook: sent/retry/rerouted/abandoned instants."""
        tracer = self.tracer
        if tracer is None:
            return
        tracer.instant(
            f"ignem.command.{what}",
            "ignem",
            lane="ignem-master",
            args={"node": node, "kind": kind, "job": job_id},
        )

    def on_do_not_harm_wait(
        self, node: str, block_id: str, job_id: str, start: float
    ) -> None:
        """IgnemSlave capacity-gate hook: span covering the stall."""
        tracer = self.tracer
        if tracer is None:
            return
        tracer.complete(
            "ignem.do_not_harm_wait",
            "ignem",
            start,
            lane=node,
            args={"block": block_id, "job": job_id},
        )

    def __repr__(self) -> str:
        state = "active" if self.active else "passive"
        return f"<Observability {state} registry={self.registry!r}>"
