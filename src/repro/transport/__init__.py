"""Message-passing transport layer: one protocol, two backends.

Every cross-node interaction — Ignem migrate/evict commands, namespace
lookups, heartbeats, block reads/writes, replica-pipeline notices,
failover announcements — is a typed message
(:mod:`~repro.transport.messages`) delivered through a
:class:`~repro.transport.base.Transport`:

* :class:`~repro.transport.sim.SimTransport` — synchronous in-process
  dispatch preserving the simulator's direct-call delivery order
  exactly (the default; outputs stay byte-identical);
* :class:`~repro.transport.aio.AsyncioTransport` — the same protocol
  over real TCP sockets on localhost, used by ``python -m repro real``
  (:mod:`~repro.transport.real`).

The package does not import the asyncio backend, so a simulated run
never loads asyncio; import it from :mod:`repro.transport.aio`.
"""

from ..net.network import NetworkError
from .base import Transport
from .messages import (
    PROTOCOL_VERSION,
    Ack,
    BlockPlacement,
    BlockReadReply,
    BlockReadRequest,
    BlockWriteReply,
    BlockWriteRequest,
    CodecError,
    CreateFileReply,
    CreateFileRequest,
    DemoteBlocksRequest,
    EvictFilesRequest,
    EvictMsg,
    FailoverMsg,
    FileInfoReply,
    FileInfoRequest,
    HeartbeatMsg,
    LocationsReply,
    LocationsRequest,
    MigrateFilesRequest,
    MigrateMsg,
    PromoteBlocksRequest,
    ReplicaPipelineMsg,
    decode,
    encode,
)
from .sim import SimTransport

__all__ = [
    "Ack",
    "BlockPlacement",
    "BlockReadReply",
    "BlockReadRequest",
    "BlockWriteReply",
    "BlockWriteRequest",
    "CodecError",
    "CreateFileReply",
    "CreateFileRequest",
    "DemoteBlocksRequest",
    "EvictFilesRequest",
    "EvictMsg",
    "FailoverMsg",
    "FileInfoReply",
    "FileInfoRequest",
    "HeartbeatMsg",
    "LocationsReply",
    "LocationsRequest",
    "MigrateFilesRequest",
    "MigrateMsg",
    "NetworkError",
    "PROTOCOL_VERSION",
    "PromoteBlocksRequest",
    "ReplicaPipelineMsg",
    "SimTransport",
    "Transport",
    "decode",
    "encode",
]
