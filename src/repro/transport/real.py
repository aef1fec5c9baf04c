"""A real (wall-clock, multi-service) Ignem mini-cluster on localhost.

``python -m repro real`` boots the services below on an
:class:`~repro.transport.aio.AsyncioTransport` — one NameNode, one
Ignem master, N DataNodes, every one a TCP server on 127.0.0.1 — and
drives a serve+migrate workload end-to-end: write files through a
store-and-forward replica pipeline (the ClusterDFS scheme), serve a
Zipf-skewed read phase from disk, migrate the hot files up via the
master (the paper's ``client.migrate``), then serve a second phase and
measure how many reads came from RAM.

This is the same protocol the simulator speaks — the services handle
:mod:`~repro.transport.messages` — with real bytes, real sockets, and
real concurrency.  It is deliberately small: the sim remains the
instrument for performance claims; the real backend proves the protocol
is honest (nothing in it depends on simulator internals) and gives the
fault-finding tools genuine races to hunt.
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.commands import EvictCommand, MigrateCommand, MigrationWorkItem
from ..dfs.blocks import Block
from ..sim.rand import RandomSource
from .aio import AsyncioTransport
from .base import NetworkError
from .messages import (
    Ack,
    BlockPlacement,
    BlockReadReply,
    BlockReadRequest,
    BlockWriteReply,
    BlockWriteRequest,
    CreateFileReply,
    CreateFileRequest,
    DemoteBlocksRequest,
    EvictFilesRequest,
    EvictMsg,
    FileInfoReply,
    FileInfoRequest,
    HeartbeatMsg,
    LocationsReply,
    LocationsRequest,
    MigrateFilesRequest,
    MigrateMsg,
    PromoteBlocksRequest,
    ReplicaPipelineMsg,
)

#: Real-mode block size: small enough that a demo writes in milliseconds,
#: large enough that a block is a meaningful payload.
BLOCK_SIZE = 256 * 1024


def block_payload(block_id: str, nbytes: int) -> bytes:
    """Deterministic content for a block (verifiable after migration):
    ``nbytes`` of SHAKE-256 output keyed by the block id."""
    return hashlib.shake_256(block_id.encode("utf-8")).digest(nbytes)


class DataNodeService:
    """One storage node: tiered byte stores plus the migration agent."""

    def __init__(self, name: str, transport: AsyncioTransport):
        self.name = name
        self.transport = transport
        self.tiers: Dict[str, Dict[str, bytes]] = {"mem": {}, "disk": {}}
        self.pipeline_notices = 0
        self._heartbeat_seq = 0
        self._heartbeat_task: Optional[asyncio.Task] = None

    async def start(self, heartbeat_interval: float = 1.0) -> None:
        await self.transport.serve(f"datanode/{self.name}", self.handle_message)
        await self.heartbeat()
        self._heartbeat_task = asyncio.ensure_future(
            self._heartbeat_loop(heartbeat_interval)
        )

    async def stop(self) -> None:
        task = self._heartbeat_task
        if task is not None:
            task.cancel()
            await asyncio.wait({task})
        self._heartbeat_task = None
        await self.transport.stop(f"datanode/{self.name}")

    # -- protocol ---------------------------------------------------------------

    async def handle_message(self, msg):
        if isinstance(msg, BlockWriteRequest):
            self.tiers["disk"][msg.block_id] = msg.data
            stored = (self.name,)
            if msg.pipeline:
                # Store-and-forward: pass the remaining pipeline on to
                # the next replica holder (ClusterDFS's fwdlist scheme).
                self.pipeline_notices += 1
                reply = await self.transport.request(
                    f"datanode/{msg.pipeline[0]}",
                    BlockWriteRequest(
                        block_id=msg.block_id,
                        path=msg.path,
                        index=msg.index,
                        data=msg.data,
                        pipeline=msg.pipeline[1:],
                    ),
                )
                stored += reply.stored
            return BlockWriteReply(ok=True, stored=stored)
        if isinstance(msg, BlockReadRequest):
            for tier in ("mem", "disk"):
                if msg.prefer_tier is not None and tier != msg.prefer_tier:
                    continue
                data = self.tiers[tier].get(msg.block_id)
                if data is not None:
                    return BlockReadReply(
                        ok=True, tier=tier, nbytes=float(len(data)), data=data
                    )
            return BlockReadReply(ok=False)
        if isinstance(msg, MigrateMsg):
            for item in msg.command.items:
                data = self.tiers["disk"].get(item.block_id)
                if data is not None:
                    self.tiers["mem"][item.block_id] = data
            # Publish the new residency before acking so the master's
            # request sees a consistent memory-locality index.
            await self.heartbeat()
            return Ack(True)
        if isinstance(msg, EvictMsg):
            for block_id in msg.command.block_ids:
                self.tiers["mem"].pop(block_id, None)
            await self.heartbeat()
            return Ack(True)
        if isinstance(msg, ReplicaPipelineMsg):
            self.pipeline_notices += 1
            return Ack(True)
        raise TypeError(f"datanode cannot handle {type(msg).__name__}")

    # -- heartbeats --------------------------------------------------------------

    async def heartbeat(self) -> None:
        self._heartbeat_seq += 1
        try:
            await self.transport.request(
                "namenode",
                HeartbeatMsg(
                    node=self.name,
                    seq=self._heartbeat_seq,
                    tier_blocks={
                        tier: tuple(sorted(blocks))
                        for tier, blocks in self.tiers.items()
                    },
                ),
            )
        except NetworkError:
            pass  # NameNode down: keep beating, it will hear the next one

    async def _heartbeat_loop(self, interval: float) -> None:
        while True:
            await asyncio.sleep(interval)
            await self.heartbeat()


class NameNodeService:
    """Namespace, block placement, and heartbeat-fed residency index."""

    def __init__(
        self,
        transport: AsyncioTransport,
        datanodes: Tuple[str, ...],
        replication: int = 2,
        block_size: int = BLOCK_SIZE,
        seed: int = 0,
    ):
        self.transport = transport
        self.datanodes = tuple(datanodes)
        self.replication = replication
        self.block_size = block_size
        self.rng = RandomSource(seed)
        self.files: Dict[str, Tuple[BlockPlacement, ...]] = {}
        self.holders: Dict[str, Tuple[str, ...]] = {}
        self.memory: Dict[str, set] = {}
        self.heartbeats: Dict[str, int] = {}

    async def start(self) -> None:
        await self.transport.serve("namenode", self.handle_message)

    def handle_message(self, msg):
        if isinstance(msg, CreateFileRequest):
            if msg.path in self.files:
                return CreateFileReply(ok=False)
            replication = msg.replication or self.replication
            replication = min(replication, len(self.datanodes))
            placements: List[BlockPlacement] = []
            remaining = int(msg.nbytes)
            index = 0
            while remaining > 0:
                nbytes = min(self.block_size, remaining)
                block_id = f"{msg.path}#blk{index}"
                nodes = tuple(
                    self.rng.sample(sorted(self.datanodes), replication)
                )
                self.holders[block_id] = nodes
                placements.append(
                    BlockPlacement(
                        block_id=block_id,
                        index=index,
                        nbytes=float(nbytes),
                        nodes=nodes,
                    )
                )
                remaining -= nbytes
                index += 1
            self.files[msg.path] = tuple(placements)
            return CreateFileReply(ok=True, blocks=tuple(placements))
        if isinstance(msg, FileInfoRequest):
            blocks = self.files.get(msg.path)
            if blocks is None:
                return FileInfoReply(exists=False)
            return FileInfoReply(exists=True, blocks=blocks)
        if isinstance(msg, LocationsRequest):
            nodes = self.holders.get(msg.block_id, ())
            resident = self.memory.get(msg.block_id, set())
            return LocationsReply(
                nodes=nodes,
                memory_nodes=tuple(n for n in nodes if n in resident),
            )
        if isinstance(msg, HeartbeatMsg):
            self.heartbeats[msg.node] = msg.seq
            mem = set(msg.tier_blocks.get("mem", ()))
            for block_id in list(self.memory):
                holders = self.memory[block_id]
                if msg.node in holders and block_id not in mem:
                    holders.discard(msg.node)
            for block_id in mem:
                self.memory.setdefault(block_id, set()).add(msg.node)
            return Ack(True)
        raise TypeError(f"namenode cannot handle {type(msg).__name__}")


class MasterService:
    """The Ignem master as a real service: file→block fan-out of
    migrate/evict commands, with per-(owner, block) eviction routing."""

    def __init__(self, transport: AsyncioTransport, seed: int = 0):
        self.transport = transport
        self.rng = RandomSource(seed)
        self.assignments: Dict[Tuple[str, str], Tuple[str, ...]] = {}

    async def start(self) -> None:
        await self.transport.serve("master", self.handle_message)

    async def handle_message(self, msg):
        if isinstance(msg, MigrateFilesRequest):
            items_by_node: Dict[str, List[MigrationWorkItem]] = {}
            order_hint = 0
            for path in msg.paths:
                info = await self.transport.request(
                    "namenode", FileInfoRequest(path)
                )
                if not info.exists:
                    continue
                for placement in info.blocks:
                    locations = await self.transport.request(
                        "namenode", LocationsRequest(placement.block_id)
                    )
                    if not locations.nodes:
                        continue
                    key = (msg.job_id, placement.block_id)
                    chosen = self.assignments.get(key)
                    if chosen is None:
                        chosen = (self.rng.choice(sorted(locations.nodes)),)
                        self.assignments[key] = chosen
                    for node in chosen:
                        items_by_node.setdefault(node, []).append(
                            MigrationWorkItem(
                                block=Block(
                                    block_id=placement.block_id,
                                    path=path,
                                    index=placement.index,
                                    nbytes=placement.nbytes,
                                ),
                                job_id=msg.job_id,
                                job_input_bytes=placement.nbytes,
                                job_submitted_at=0.0,
                                implicit_eviction=msg.implicit_eviction,
                                order_hint=order_hint,
                                dst_tier=msg.dst_tier or "mem",
                            )
                        )
                    order_hint += 1
            for node, items in items_by_node.items():
                await self.transport.request(
                    f"datanode/{node}",
                    MigrateMsg(MigrateCommand(msg.job_id, tuple(items))),
                )
            return Ack(True)
        if isinstance(msg, (EvictFilesRequest, DemoteBlocksRequest)):
            if isinstance(msg, EvictFilesRequest):
                owner = msg.job_id
                block_ids = []
                for path in msg.paths:
                    info = await self.transport.request(
                        "namenode", FileInfoRequest(path)
                    )
                    block_ids.extend(p.block_id for p in info.blocks)
            else:
                owner = msg.owner
                block_ids = list(msg.block_ids)
            by_node: Dict[str, List[str]] = {}
            for block_id in block_ids:
                for node in self.assignments.pop((owner, block_id), ()):
                    by_node.setdefault(node, []).append(block_id)
            for node, ids in by_node.items():
                await self.transport.request(
                    f"datanode/{node}",
                    EvictMsg(EvictCommand(owner, tuple(ids))),
                )
            return Ack(True)
        if isinstance(msg, PromoteBlocksRequest):
            # The real demo promotes whole files; block-level promotion
            # reuses the file machinery once the heat policy runs real.
            return Ack(True)
        raise TypeError(f"master cannot handle {type(msg).__name__}")


@dataclass
class RealResult:
    """Outcome of one ``repro real`` run."""

    nodes: int
    files: int
    blocks: int
    reads_per_phase: int
    phase1_p50_ms: float
    phase1_p99_ms: float
    phase2_p50_ms: float
    phase2_p99_ms: float
    phase1_ram_reads: int
    phase2_ram_reads: int
    blocks_lost: int
    pipeline_depth: Tuple[int, ...] = ()
    errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors and self.blocks_lost == 0

    def to_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "files": self.files,
            "blocks": self.blocks,
            "reads_per_phase": self.reads_per_phase,
            "phase1": {
                "p50_ms": self.phase1_p50_ms,
                "p99_ms": self.phase1_p99_ms,
                "ram_reads": self.phase1_ram_reads,
            },
            "phase2": {
                "p50_ms": self.phase2_p50_ms,
                "p99_ms": self.phase2_p99_ms,
                "ram_reads": self.phase2_ram_reads,
            },
            "blocks_lost": self.blocks_lost,
            "pipeline_forwards": sum(self.pipeline_depth),
            "errors": list(self.errors),
            "ok": self.ok,
        }

    def summary(self) -> str:
        lines = [
            "repro real: serve+migrate on an asyncio localhost cluster",
            f"  nodes={self.nodes} files={self.files} blocks={self.blocks} "
            f"reads/phase={self.reads_per_phase}",
            f"  phase1 (cold):     p50={self.phase1_p50_ms:.2f}ms "
            f"p99={self.phase1_p99_ms:.2f}ms ram_reads={self.phase1_ram_reads}",
            f"  phase2 (migrated): p50={self.phase2_p50_ms:.2f}ms "
            f"p99={self.phase2_p99_ms:.2f}ms ram_reads={self.phase2_ram_reads}",
            f"  blocks_lost={self.blocks_lost} ok={self.ok}",
        ]
        if self.errors:
            lines.extend(f"  error: {err}" for err in self.errors)
        return "\n".join(lines)


def _weighted_pick(rng: RandomSource, items, weights):
    """One weighted draw by CDF inversion (RandomSource has no
    ``choices``; this keeps the demo on the repo's seeded streams)."""
    point = rng.uniform(0.0, sum(weights))
    acc = 0.0
    for item, weight in zip(items, weights):
        acc += weight
        if point <= acc:
            return item
    return items[-1]


def _percentile(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


async def _run_demo(
    nodes: int,
    files: int,
    reads: int,
    seed: int,
    replication: int,
    file_blocks: int,
) -> RealResult:
    transport = AsyncioTransport()
    names = tuple(f"node{i}" for i in range(nodes))
    namenode = NameNodeService(
        transport, names, replication=replication, seed=seed
    )
    master = MasterService(transport, seed=seed)
    datanodes = [DataNodeService(name, transport) for name in names]
    errors: List[str] = []
    rng = RandomSource(seed)
    expected: Dict[str, bytes] = {}
    placements: Dict[str, Tuple[BlockPlacement, ...]] = {}

    try:
        await namenode.start()
        await master.start()
        for dn in datanodes:
            await dn.start()

        # -- write phase: create + pipeline-replicate every file ----------
        paths = [f"/real/file-{i}" for i in range(files)]
        for path in paths:
            created = await transport.request(
                "namenode",
                CreateFileRequest(path, float(BLOCK_SIZE * file_blocks)),
            )
            placements[path] = created.blocks
            for placement in created.blocks:
                data = block_payload(placement.block_id, int(placement.nbytes))
                expected[placement.block_id] = data
                head, tail = placement.nodes[0], placement.nodes[1:]
                reply = await transport.request(
                    f"datanode/{head}",
                    BlockWriteRequest(
                        block_id=placement.block_id,
                        path=path,
                        index=placement.index,
                        data=data,
                        pipeline=tail,
                    ),
                )
                if set(reply.stored) != set(placement.nodes):
                    errors.append(
                        f"pipeline write of {placement.block_id} stored on "
                        f"{reply.stored}, wanted {placement.nodes}"
                    )

        # -- read helper (Zipf-skewed towards the first files) ------------
        all_blocks = [p for path in paths for p in placements[path]]
        weights = [1.0 / (i + 1) for i in range(len(all_blocks))]

        async def serve_phase() -> Tuple[List[float], int]:
            latencies: List[float] = []
            ram = 0
            loop = asyncio.get_running_loop()
            for _ in range(reads):
                placement = _weighted_pick(rng, all_blocks, weights)
                start = loop.time()
                locations = await transport.request(
                    "namenode", LocationsRequest(placement.block_id)
                )
                serving = (
                    rng.choice(sorted(locations.memory_nodes))
                    if locations.memory_nodes
                    else rng.choice(sorted(locations.nodes))
                )
                reply = await transport.request(
                    f"datanode/{serving}", BlockReadRequest(placement.block_id)
                )
                latencies.append((loop.time() - start) * 1000.0)
                if not reply.ok:
                    errors.append(f"read of {placement.block_id} failed")
                elif reply.data != expected[placement.block_id]:
                    errors.append(f"read of {placement.block_id} corrupt")
                elif reply.tier == "mem":
                    ram += 1
            return latencies, ram

        phase1, ram1 = await serve_phase()

        # -- migrate the hot half of the files up -------------------------
        hot = paths[: max(1, len(paths) // 2)]
        await transport.request(
            "master", MigrateFilesRequest(tuple(hot), job_id="serve-demo")
        )

        phase2, ram2 = await serve_phase()

        # -- verify: every replica of every block is intact ---------------
        blocks_lost = 0
        for path in paths:
            for placement in placements[path]:
                for node in placement.nodes:
                    reply = await transport.request(
                        f"datanode/{node}",
                        BlockReadRequest(placement.block_id),
                    )
                    if (
                        not reply.ok
                        or reply.data != expected[placement.block_id]
                    ):
                        blocks_lost += 1

        return RealResult(
            nodes=nodes,
            files=files,
            blocks=len(all_blocks),
            reads_per_phase=reads,
            phase1_p50_ms=_percentile(phase1, 0.50),
            phase1_p99_ms=_percentile(phase1, 0.99),
            phase2_p50_ms=_percentile(phase2, 0.50),
            phase2_p99_ms=_percentile(phase2, 0.99),
            phase1_ram_reads=ram1,
            phase2_ram_reads=ram2,
            blocks_lost=blocks_lost,
            pipeline_depth=tuple(dn.pipeline_notices for dn in datanodes),
            errors=errors,
        )
    finally:
        for dn in datanodes:
            await dn.stop()
        await transport.close()


def run_real_demo(
    nodes: int = 3,
    files: int = 4,
    reads: int = 40,
    seed: int = 0,
    replication: int = 2,
    file_blocks: int = 2,
) -> RealResult:
    """Boot the asyncio mini-cluster and run the serve+migrate demo."""
    if nodes < 3:
        raise ValueError("the real demo needs >= 3 DataNodes")
    return asyncio.run(
        _run_demo(nodes, files, reads, seed, replication, file_blocks)
    )
