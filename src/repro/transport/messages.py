"""Typed protocol messages and the versioned wire codec.

Every cross-node interaction in the system — migrate/evict commands,
file-level migration requests, heartbeats, block reads and writes, and
failover announcements — is expressed as one of the dataclasses below,
and each one has a sender: the simulated cluster's client, heat policy
and Ignem master, or the real backend's services
(:mod:`~repro.transport.real`).  A message is the unit a
:class:`~repro.transport.base.Transport` carries.

The codec serialises any message to a binary *frame*: a 4-byte
big-endian envelope length, a self-describing JSON envelope
``{"v": 3, "kind": "<ClassName>", "body": {...}, "blobs": [n, ...]}``,
then the raw ``bytes`` payloads ("blobs") back to back.  A ``bytes``
field travels as a reference ``{"__b__": i}`` into the blob section and
``"blobs"`` lists each blob's length (the key is omitted when there
are none), so a 256 KiB block crosses the wire as itself and the JSON
the receiver parses stays a few hundred bytes.  Nested domain objects
(:class:`~repro.dfs.blocks.Block`,
:class:`~repro.core.commands.MigrationWorkItem`,
:class:`~repro.core.commands.MigrateCommand`,
:class:`~repro.core.commands.EvictCommand`) travel as tagged dicts;
JSON lists decode back to tuples so a decoded message compares equal to
the original.  ``MigrationWorkItem`` is reconstructed with its ``seq``
and ``received_at`` passed explicitly — decoding must never consume the
global sequence counter, or wire round-trips would perturb priority
tie-breaks in the simulator.

The ``SimTransport`` never serialises (it hands the original objects to
the destination, preserving delivery identity); the codec is the wire
format of the asyncio backend and the round-trip property suite.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.commands import EvictCommand, MigrateCommand, MigrationWorkItem
from ..dfs.blocks import Block

#: Bumped on any incompatible change to the message set or encoding.
PROTOCOL_VERSION = 3

_ENVELOPE_LEN = struct.Struct(">I")


class CodecError(Exception):
    """A message could not be encoded or decoded (unknown kind, wrong
    protocol version, malformed body)."""


# -- message types -----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Ack:
    """Generic acknowledgement reply.  ``ok=False`` mirrors today's
    unacked-RPC semantics (e.g. a dead slave refusing a command)."""

    ok: bool = True


@dataclass(frozen=True, slots=True)
class MigrateMsg:
    """Master → slave: queue this batch of migration work."""

    command: MigrateCommand


@dataclass(frozen=True, slots=True)
class EvictMsg:
    """Master → slave: drop this job's block references."""

    command: EvictCommand


@dataclass(frozen=True, slots=True)
class MigrateFilesRequest:
    """Client → master: migrate these files' blocks for a job
    (the paper's ``client.migrate`` call, Section III-B3)."""

    paths: Tuple[str, ...]
    job_id: str
    implicit_eviction: bool = False


@dataclass(frozen=True, slots=True)
class EvictFilesRequest:
    """Client → master: the job is done with these files."""

    paths: Tuple[str, ...]
    job_id: str


@dataclass(frozen=True, slots=True)
class PromoteBlocksRequest:
    """Heat policy → master: promote these hot blocks under ``owner``."""

    blocks: Tuple[Block, ...]
    owner: str
    dst_tier: Optional[str] = None


@dataclass(frozen=True, slots=True)
class DemoteBlocksRequest:
    """Heat policy → master: demote cooled blocks promoted under ``owner``."""

    block_ids: Tuple[str, ...]
    owner: str


@dataclass(frozen=True, slots=True)
class HeartbeatMsg:
    """DataNode → NameNode: liveness plus per-tier block residency."""

    node: str
    seq: int
    tier_blocks: Dict[str, Tuple[str, ...]]


@dataclass(frozen=True, slots=True)
class BlockReadRequest:
    """Reader → DataNode: serve one block from its fastest tier."""

    block_id: str


@dataclass(frozen=True, slots=True)
class BlockReadReply:
    ok: bool
    tier: Optional[str] = None
    nbytes: float = 0.0
    data: bytes = b""


@dataclass(frozen=True, slots=True)
class BlockWriteRequest:
    """Writer → DataNode: store a block and forward it down the replica
    pipeline (store-and-forward, the ClusterDFS ``fwdlist`` scheme)."""

    block_id: str
    path: str
    index: int
    data: bytes
    pipeline: Tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class BlockWriteReply:
    ok: bool
    stored: Tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class FailoverMsg:
    """HA pair → slaves: the active master changed; purge reference
    state to stay consistent with the new master (paper III-A5)."""

    generation: int
    active: str


@dataclass(frozen=True, slots=True)
class CreateFileRequest:
    """Client → NameNode: create a file and place its blocks."""

    path: str
    nbytes: float


@dataclass(frozen=True, slots=True)
class BlockPlacement:
    """One placed block inside a :class:`CreateFileReply`."""

    block_id: str
    index: int
    nbytes: float
    nodes: Tuple[str, ...]


@dataclass(frozen=True, slots=True)
class CreateFileReply:
    ok: bool
    blocks: Tuple[BlockPlacement, ...] = ()


@dataclass(frozen=True, slots=True)
class LocationsRequest:
    """Client → NameNode: where does this block live (and which holders
    serve it from memory)?"""

    block_id: str


@dataclass(frozen=True, slots=True)
class LocationsReply:
    nodes: Tuple[str, ...]
    memory_nodes: Tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class FileInfoRequest:
    path: str


@dataclass(frozen=True, slots=True)
class FileInfoReply:
    exists: bool
    blocks: Tuple[BlockPlacement, ...] = ()


#: Every type the codec can carry — top-level messages plus the nested
#: domain objects they embed.
_WIRE_TYPES = (
    Ack,
    MigrateMsg,
    EvictMsg,
    MigrateFilesRequest,
    EvictFilesRequest,
    PromoteBlocksRequest,
    DemoteBlocksRequest,
    HeartbeatMsg,
    BlockReadRequest,
    BlockReadReply,
    BlockWriteRequest,
    BlockWriteReply,
    FailoverMsg,
    CreateFileRequest,
    BlockPlacement,
    CreateFileReply,
    LocationsRequest,
    LocationsReply,
    FileInfoRequest,
    FileInfoReply,
    Block,
    MigrationWorkItem,
    MigrateCommand,
    EvictCommand,
)

MESSAGE_TYPES = tuple(
    t for t in _WIRE_TYPES
    if t not in (Block, MigrationWorkItem, MigrateCommand, EvictCommand)
)

_BY_KIND = {t.__name__: t for t in _WIRE_TYPES}


# -- codec -------------------------------------------------------------------------


def _to_jsonable(value, blobs: List[bytes]):
    if isinstance(value, bytes):
        blobs.append(value)
        return {"__b__": len(blobs) - 1}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        kind = type(value).__name__
        if kind not in _BY_KIND:
            raise CodecError(f"unregistered wire type {kind!r}")
        body = {
            f.name: _to_jsonable(getattr(value, f.name), blobs)
            for f in dataclasses.fields(value)
        }
        return {"__t__": kind, **body}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(item, blobs) for item in value]
    if isinstance(value, dict):
        return {key: _to_jsonable(item, blobs) for key, item in value.items()}
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise CodecError(f"cannot encode {type(value).__name__}: {value!r}")


def _from_jsonable(value, blobs: Sequence[bytes]):
    if isinstance(value, dict):
        if "__b__" in value and len(value) == 1:
            index = value["__b__"]
            if type(index) is not int or not 0 <= index < len(blobs):
                raise CodecError(
                    f"blob reference {index!r} out of range ({len(blobs)} blobs)"
                )
            return blobs[index]
        if "__t__" in value:
            kind = value["__t__"]
            cls = _BY_KIND.get(kind)
            if cls is None:
                raise CodecError(f"unknown wire type {kind!r}")
            fields = {
                key: _from_jsonable(item, blobs)
                for key, item in value.items()
                if key != "__t__"
            }
            try:
                return cls(**fields)
            except TypeError as exc:
                raise CodecError(f"malformed {kind} body: {exc}") from exc
        return {key: _from_jsonable(item, blobs) for key, item in value.items()}
    if isinstance(value, list):
        return tuple(_from_jsonable(item, blobs) for item in value)
    return value


def encode_obj(message, blobs: List[bytes]) -> dict:
    """Message → envelope dict ``{"v", "kind", "body"}``; every ``bytes``
    field is appended to ``blobs`` and referenced by its index."""
    kind = type(message).__name__
    if kind not in _BY_KIND:
        raise CodecError(f"unknown message type {kind!r}")
    wire = _to_jsonable(message, blobs)
    wire.pop("__t__")
    return {"v": PROTOCOL_VERSION, "kind": kind, "body": wire}


def decode_obj(envelope: dict, blobs: Sequence[bytes]):
    """Envelope dict plus its blobs → message (inverse of :func:`encode_obj`)."""
    if not isinstance(envelope, dict):
        raise CodecError(f"envelope must be a dict, got {type(envelope).__name__}")
    version = envelope.get("v")
    if version != PROTOCOL_VERSION:
        raise CodecError(
            f"unsupported protocol version {version!r} "
            f"(this build speaks {PROTOCOL_VERSION})"
        )
    kind = envelope.get("kind")
    body = envelope.get("body")
    if kind not in _BY_KIND or not isinstance(body, dict):
        raise CodecError(f"malformed envelope: kind={kind!r}")
    return _from_jsonable({"__t__": kind, **body}, blobs)


def pack(envelope: dict, blobs: Sequence[bytes]) -> List[bytes]:
    """Envelope plus blobs → the frame's parts, in wire order: envelope
    length, canonical JSON envelope (sorted keys, compact separators),
    then each blob.  The parts are returned unjoined so a socket can
    write a block payload without copying it into a second buffer."""
    if blobs:
        envelope = {**envelope, "blobs": [len(blob) for blob in blobs]}
    head = json.dumps(envelope, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    return [_ENVELOPE_LEN.pack(len(head)), head, *blobs]


def unpack(frame) -> Tuple[dict, List[bytes]]:
    """Frame (any bytes-like object) → ``(envelope, blobs)`` (inverse of
    :func:`pack`).  Each blob is copied out as ``bytes``.  Raises
    :class:`CodecError` unless the envelope and the blob lengths it lists
    fill the frame exactly."""
    if len(frame) < _ENVELOPE_LEN.size:
        raise CodecError(f"frame too short ({len(frame)} bytes)")
    (head_len,) = _ENVELOPE_LEN.unpack_from(frame)
    start = _ENVELOPE_LEN.size + head_len
    if start > len(frame):
        raise CodecError(
            f"envelope length {head_len} larger than the frame ({len(frame)} bytes)"
        )
    try:
        envelope = json.loads(str(frame[_ENVELOPE_LEN.size : start], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"undecodable envelope: {exc}") from exc
    if not isinstance(envelope, dict):
        raise CodecError(f"envelope must be a dict, got {type(envelope).__name__}")
    sizes = envelope.pop("blobs", [])
    if not isinstance(sizes, list) or not all(
        type(size) is int and size >= 0 for size in sizes
    ):
        raise CodecError(f"malformed blob lengths {sizes!r}")
    if start + sum(sizes) != len(frame):
        raise CodecError(
            f"blob lengths {sizes} do not fill the {len(frame) - start} "
            "bytes after the envelope"
        )
    view = memoryview(frame)
    blobs = []
    for size in sizes:
        blobs.append(bytes(view[start : start + size]))
        start += size
    return envelope, blobs


def encode(message) -> bytes:
    """Message → frame bytes (canonical: equal messages, equal bytes)."""
    blobs: List[bytes] = []
    return b"".join(pack(encode_obj(message, blobs), blobs))


def decode(frame: bytes):
    """Frame bytes → message (inverse of :func:`encode`)."""
    envelope, blobs = unpack(frame)
    return decode_obj(envelope, blobs)
