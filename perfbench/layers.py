"""Host time and work per layer, measured from outside the program.

For the length of a traced member, every entry point in
:data:`ENTRY_POINTS` is replaced by a wrapper that opens a span on entry
and closes it on return.  Each instant of wall time is charged to the
open span entered last -- for synchronous code, the innermost one -- or
to ``unattributed`` when no span is open.  A layer's self time is what
its spans were charged, which for nested synchronous spans is their
duration minus their children's; the layers plus ``unattributed`` add
up to the traced wall time by construction.  On the asyncio workload several spans can
be open at once (a client's request waits while a server decodes), and
the last-entered rule still charges each instant exactly once.

``Environment.run`` is the ``sim`` span, so process generator bodies
that no public call wraps are charged to ``sim``.  Spans inside the
program are left to a later change.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
from collections import Counter
from contextlib import ExitStack, contextmanager
from time import perf_counter
from typing import Dict, Iterator, List

from summary import percentile

GB = 1024.0**3

#: Public entry points timed per layer (``module:Owner.attribute``).
ENTRY_POINTS = {
    "sim": ("repro.sim.engine:Environment.run",),
    "storage": ("repro.storage.device:TransferDevice.transfer",),
    "net": ("repro.net.network:Network.transfer",),
    "dfs": (
        "repro.dfs.namenode:NameNode.create_file",
        "repro.dfs.namenode:NameNode.get_block_locations",
        "repro.dfs.namenode:NameNode.memory_locations",
        "repro.dfs.namenode:NameNode.file_blocks",
        "repro.dfs.datanode:DataNode.read_block",
    ),
    "core": (
        "repro.core.master:IgnemMaster.request_migration",
        "repro.core.master:IgnemMaster.request_eviction",
        "repro.core.master:IgnemMaster.request_block_migration",
        "repro.core.master:IgnemMaster.request_block_eviction",
        "repro.core.slave:IgnemSlave.receive_migrate",
        "repro.core.slave:IgnemSlave.receive_evict",
    ),
    "heat": (
        "repro.core.heat:PopularityMigrator.on_read",
        "repro.core.heat:plan_promotions",
    ),
    "scheduler": ("repro.scheduler.resource_manager:ResourceManager.on_heartbeat",),
    "mapreduce": ("repro.mapreduce.engine:MapReduceEngine.submit_job",),
    "transport": (
        "repro.transport.sim:SimTransport.request",
        "repro.transport.sim:SimTransport.send",
        "repro.transport.aio:AsyncioTransport.request",
        "repro.transport.aio:AsyncioTransport.send",
        # The names the asyncio backend calls, not their definitions.
        "repro.transport.aio:encode_obj",
        "repro.transport.aio:decode_obj",
    ),
    "workloads": (
        "repro.workloads.swim:SwimGenerator.generate",
        "repro.workloads.google_trace:GoogleTraceGenerator.generate_jobs",
        "repro.workloads.serve:generate_requests",
    ),
}
LAYERS = tuple(ENTRY_POINTS)
UNATTRIBUTED = "unattributed"

#: A transfer admitted to a device already carrying this many streams
#: runs in the device's vectorized resharing regime.
WIDE_STREAMS = 64

_REQUESTS = ("SimTransport.request", "AsyncioTransport.request")


@contextmanager
def patched(owner, attribute: str, wrap) -> Iterator[None]:
    """Replace ``owner.attribute`` with ``wrap(original)`` until exit."""
    original = getattr(owner, attribute)
    setattr(owner, attribute, wrap(original))
    try:
        yield
    finally:
        setattr(owner, attribute, original)


def _resolve(entry: str):
    module_name, _, path = entry.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute, path


class _Span:
    __slots__ = ("name", "layer", "start", "id", "parent", "token")


class Tracer:
    """Spans, self times and counts for one traced pass."""

    def __init__(self, keep_spans: int = 0):
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS + (UNATTRIBUTED,), 0.0)
        self.calls: Counter = Counter()
        self.inclusive_s: Counter = Counter()
        self.request_ms: List[float] = []
        self.bytes: Counter = Counter()
        self.wide_transfers = 0
        self.events = 0
        #: Σ over captured clusters, harvested when each member ends.
        self.cluster_stats: Counter = Counter()
        self.spans: List[tuple] = []
        self._keep = keep_spans
        self._clusters: list = []
        self._open: List[_Span] = []
        self._last = 0.0
        self._member = 0
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=0)

    # -- spans -----------------------------------------------------------------

    def _charge(self, now: float) -> None:
        layer = self._open[-1].layer if self._open else UNATTRIBUTED
        self.self_s[layer] += now - self._last
        self._last = now

    def enter(self, name: str, layer: str) -> _Span:
        now = perf_counter()
        self._charge(now)
        span = _Span()
        span.name = name
        span.layer = layer
        span.start = now
        span.id = next(self._ids)
        span.parent = self._current.get()
        span.token = self._current.set(span.id)
        self._open.append(span)
        self.calls[name] += 1
        return span

    def exit(self, span: _Span) -> None:
        now = perf_counter()
        self._charge(now)
        spans = self._open
        if spans[-1] is span:
            spans.pop()
        else:
            # An async span that ended while a later one is still open.
            del spans[next(i for i in range(len(spans)) if spans[i] is span)]
        self._current.reset(span.token)
        duration = now - span.start
        self.inclusive_s[span.name] += duration
        if span.name in _REQUESTS:
            self.request_ms.append(1000.0 * duration)
        if len(self.spans) < self._keep:
            self.spans.append(
                (span.name, span.layer, span.start, now, span.id, span.parent, self._member)
            )

    def count_event(self, _when, _event, _callbacks) -> None:
        """``Environment.monitor`` hook: one call per dispatched event."""
        self.events += 1

    @contextmanager
    def window(self, member: int) -> Iterator[None]:
        """Account one member's wall time; harvest its clusters after."""
        self._member = member
        self._last = perf_counter()
        yield
        self._charge(perf_counter())
        if self._open:
            raise RuntimeError(f"spans left open: {[s.name for s in self._open]}")
        for cluster in self._clusters:
            self._harvest(cluster)
        self._clusters.clear()

    # -- wrappers --------------------------------------------------------------

    def _note(self, name: str, args: tuple, kwargs: dict) -> None:
        if name == "Environment.run":
            env = args[0]
            if env.monitor is None:
                env.monitor = self.count_event
        elif name == "TransferDevice.transfer":
            device = args[0]
            self.bytes["storage"] += args[1] if len(args) > 1 else kwargs["nbytes"]
            if device.active_transfers >= WIDE_STREAMS:
                self.wide_transfers += 1
        elif name == "Network.transfer":
            self.bytes["net"] += args[3] if len(args) > 3 else kwargs["nbytes"]

    def _wrap(self, name: str, layer: str, function):
        if inspect.iscoroutinefunction(function):

            async def traced(*args, **kwargs):
                span = self.enter(name, layer)
                try:
                    return await function(*args, **kwargs)
                finally:
                    self.exit(span)

        else:

            def traced(*args, **kwargs):
                self._note(name, args, kwargs)
                span = self.enter(name, layer)
                try:
                    return function(*args, **kwargs)
                finally:
                    self.exit(span)

        return functools.wraps(function)(traced)

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every entry point, and capture each cluster built."""
        # Imported here: the program is importable only once run.py has
        # found its sources.
        from repro.cluster import Cluster

        def capture(init):
            def init_and_capture(cluster, *args, **kwargs):
                init(cluster, *args, **kwargs)
                self._clusters.append(cluster)

            return init_and_capture

        with ExitStack() as stack:
            stack.enter_context(patched(Cluster, "__init__", capture))
            for layer, entries in ENTRY_POINTS.items():
                for entry in entries:
                    owner, attribute, name = _resolve(entry)
                    stack.enter_context(
                        patched(
                            owner,
                            attribute,
                            lambda fn, n=name, lay=layer: self._wrap(n, lay, fn),
                        )
                    )
            yield

    # -- per-cluster outputs ---------------------------------------------------

    def _harvest(self, cluster) -> None:
        stats = self.cluster_stats
        disks = [datanode.disk for datanode in cluster.datanodes.values()]
        stats["disk_busy_s"] += sum(disk.busy_time for disk in disks)
        stats["disk_s"] += len(disks) * cluster.env.now
        collector = cluster.collector
        completed = collector.completed_migrations()
        stats["migrations"] += len(completed)
        stats["migrated_bytes"] += sum(m.nbytes for m in completed)
        if cluster.ignem_master is not None:
            waits = cluster.metrics.histogram("ignem.slave.queue_wait_seconds")
            stats["queued_migrations"] += waits.count
            stats["migration_wait_s"] += waits.total
        stats["jobs"] += len(collector.jobs)
        stats["job_lead_s"] += sum(job.lead_time for job in collector.jobs)
        tasks = collector.tasks
        stats["tasks"] += len(tasks)
        maps = [task.duration for task in tasks if task.kind == "map"]
        stats["maps"] += len(maps)
        stats["map_s"] += sum(maps)
        if cluster.heat_migrator is not None:
            for event in ("ticks", "promotions", "demotions", "shed"):
                stats[event] += cluster.metrics.value(f"heat.policy.{event}")

    # -- results ---------------------------------------------------------------

    def metrics(self, ram_reads: int) -> Dict[str, float]:
        """Per-layer metrics for the pass; ``ram_reads`` is the pass's
        RAM-served block reads (the numerator of the migration hit ratio)."""
        calls = self.calls
        stats = self.cluster_stats
        self_s = self.self_s

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        def count(*names: str) -> int:
            return sum(calls[name] for name in names)

        transfers = calls["TransferDevice.transfer"]
        requests = self.request_ms
        return {
            "sim.self_s": self_s["sim"],
            "sim.events": self.events,
            "sim.us_per_event": 1e6 * ratio(self_s["sim"], self.events),
            "storage.self_s": self_s["storage"],
            "storage.transfers": transfers,
            "storage.gb_moved": self.bytes["storage"] / GB,
            "storage.disk_busy_share": ratio(stats["disk_busy_s"], stats["disk_s"]),
            "storage.wide_share": ratio(self.wide_transfers, transfers),
            "net.self_s": self_s["net"],
            "net.transfers": calls["Network.transfer"],
            "net.gb_moved": self.bytes["net"] / GB,
            "dfs.self_s": self_s["dfs"],
            "dfs.lookups": count(
                "NameNode.get_block_locations",
                "NameNode.memory_locations",
                "NameNode.file_blocks",
            ),
            "dfs.block_reads": calls["DataNode.read_block"],
            "dfs.files_created": calls["NameNode.create_file"],
            "core.self_s": self_s["core"],
            "core.calls": count(*(entry.partition(":")[2] for entry in ENTRY_POINTS["core"])),
            "core.migrations_completed": stats["migrations"],
            "core.migrated_gb": stats["migrated_bytes"] / GB,
            "core.migration_wait_s": ratio(
                stats["migration_wait_s"], stats["queued_migrations"]
            ),
            "core.migration_hit_ratio": ratio(ram_reads, stats["migrations"]),
            "heat.self_s": self_s["heat"],
            "heat.reads_folded": calls["PopularityMigrator.on_read"],
            "heat.ticks": stats["ticks"],
            "heat.promotions": stats["promotions"],
            "heat.demotions": stats["demotions"],
            "heat.shed": stats["shed"],
            "scheduler.self_s": self_s["scheduler"],
            "scheduler.heartbeats": calls["ResourceManager.on_heartbeat"],
            "scheduler.job_lead_s": ratio(stats["job_lead_s"], stats["jobs"]),
            "mapreduce.self_s": self_s["mapreduce"],
            "mapreduce.tasks": stats["tasks"],
            "mapreduce.map_s": ratio(stats["map_s"], stats["maps"]),
            "transport.self_s": self_s["transport"],
            "transport.messages": count(
                "SimTransport.request",
                "SimTransport.send",
                "AsyncioTransport.request",
                "AsyncioTransport.send",
            ),
            "transport.codec_s": self.inclusive_s["encode_obj"]
            + self.inclusive_s["decode_obj"],
            "transport.request_p50_ms": percentile(requests, 0.5) if requests else 0.0,
            "transport.request_p99_ms": percentile(requests, 0.99) if requests else 0.0,
            "workloads.self_s": self_s["workloads"],
            "unattributed_s": self_s[UNATTRIBUTED],
        }

    def write_chrome(self, path, workload: str) -> None:
        """Write the kept spans in Chrome ``trace_event`` format."""
        origin = min((span[2] for span in self.spans), default=0.0)
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": 1e6 * (start - origin),
                "dur": 1e6 * (end - start),
                "pid": 1,
                "tid": member,
                "args": {"id": span_id, "parent": parent},
            }
            for name, layer, start, end, span_id, parent, member in self.spans
        ]
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "workload": workload,
                "spans_kept": len(events),
                "spans_total": sum(self.calls.values()),
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)

