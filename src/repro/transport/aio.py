"""AsyncioTransport: the same protocol over real TCP sockets.

Each endpoint is an ``asyncio`` TCP server on ``127.0.0.1`` with an
OS-assigned port, found through an in-process directory (name →
address).  Each frame is a 4-byte big-endian length prefix followed by
a :mod:`~repro.transport.messages` frame: the JSON envelope, then the
message's ``bytes`` payloads raw::

    {"v": 2, "mid": 7, "rsvp": true, "kind": "MigrateMsg", "body": {...}}

Replies echo the message id: ``{"v": 2, "re": 7, "kind": ..., "body":
...}`` (or ``{"re": 7, "err": "..."}`` when the handler raised).
Request/reply matching is by ``mid``, so one persistent connection per
(caller, endpoint) pair multiplexes any number of in-flight requests.

Delivery guarantees:

* **per-connection FIFO** — the server consumes each connection's
  frames sequentially and runs the handler to completion before the
  next frame, so two messages from one caller to one endpoint are
  handled in send order (the same order ``SimTransport`` gives);
* **no cross-endpoint ordering** — messages to different endpoints
  race, exactly like independent sockets;
* **errors surface as** :class:`~repro.net.network.NetworkError` — an
  unknown endpoint, a refused/reset connection, a handler crash, a
  malformed frame, or a reply timeout all raise it, mirroring the sim's
  failure surface.  A malformed frame drops the connection it came on.

Handlers may be plain functions or coroutines; replies are codec-encoded
messages, so anything the wire format carries can cross the socket.
"""

from __future__ import annotations

import asyncio
import itertools
import struct
from typing import Dict, List, Optional, Sequence, Tuple

from .base import NetworkError, Transport
from .messages import CodecError, decode_obj, encode_obj, pack, unpack

__all__ = ["AsyncioTransport", "NetworkError"]

_HEADER = struct.Struct(">I")
#: Frames beyond this are a protocol error (a block plus envelope
#: overhead fits comfortably; this bounds a malformed length prefix).
MAX_FRAME = 64 * 1024 * 1024


async def _read_frame(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[dict, List[bytes]]]:
    """Next ``(envelope, blobs)`` on the stream, or ``None`` at EOF."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME:
        raise NetworkError(f"oversized frame ({length} bytes)")
    try:
        frame = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionError):
        return None
    try:
        return unpack(frame)
    except CodecError as exc:
        raise NetworkError(f"malformed frame: {exc}") from exc


def _write_frame(
    writer: asyncio.StreamWriter, envelope: dict, blobs: Sequence[bytes] = ()
) -> None:
    parts = pack(envelope, blobs)
    writer.writelines([_HEADER.pack(sum(map(len, parts))), *parts])


class _Peer:
    """One persistent client connection to a remote endpoint."""

    __slots__ = ("reader", "writer", "pending", "task")

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.pending: Dict[int, asyncio.Future] = {}
        self.task: Optional[asyncio.Task] = None


class AsyncioTransport(Transport):
    """Real sockets on localhost; the ``repro real`` backend."""

    def __init__(self, host: str = "127.0.0.1", reply_timeout: float = 30.0):
        super().__init__()
        self.host = host
        self.reply_timeout = reply_timeout
        self._servers: Dict[str, asyncio.base_events.Server] = {}
        #: Live server-side connection tasks per endpoint.  ``Server.close``
        #: only stops *listening*; established connections must be
        #: cancelled explicitly or they outlive the endpoint.
        self._conn_tasks: Dict[str, set] = {}
        self._directory: Dict[str, Tuple[str, int]] = {}
        self._peers: Dict[str, _Peer] = {}
        self._mids = itertools.count(1)
        self._closed = False

    # -- serving -----------------------------------------------------------------

    async def serve(self, name: str, handler) -> Tuple[str, int]:
        """Start a TCP service for ``name``; returns its address."""
        self.register(name, handler)
        server = await asyncio.start_server(
            lambda r, w: self._serve_connection(name, r, w), self.host, 0
        )
        address = server.sockets[0].getsockname()[:2]
        self._servers[name] = server
        self._directory[name] = (address[0], address[1])
        return self._directory[name]

    async def stop(self, name: str) -> None:
        """Take one endpoint down (its address disappears; in-flight
        connections reset — callers observe :class:`NetworkError`)."""
        self.deregister(name)
        self._directory.pop(name, None)
        server = self._servers.pop(name, None)
        if server is not None:
            server.close()
            await server.wait_closed()
        for task in list(self._conn_tasks.pop(name, ())):
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass

    async def _serve_connection(self, name: str, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.setdefault(name, set()).add(task)
        try:
            while True:
                frame = await _read_frame(reader)
                if frame is None:
                    return
                await self._handle_frame(name, *frame, writer)
                await writer.drain()
        except (ConnectionError, NetworkError, asyncio.CancelledError):
            return
        finally:
            if task is not None:
                self._conn_tasks.get(name, set()).discard(task)
            try:
                writer.close()
            except RuntimeError:
                pass  # event loop already torn down

    async def _handle_frame(
        self, name: str, envelope: dict, blobs: List[bytes], writer
    ) -> None:
        mid = envelope.get("mid")
        rsvp = envelope.get("rsvp", False)
        try:
            message = decode_obj(envelope, blobs)
            handler = self._handler(name)
            reply = handler(message)
            if asyncio.iscoroutine(reply):
                reply = await reply
        except Exception as exc:
            if rsvp:
                _write_frame(writer, {"re": mid, "err": f"{exc}"})
            return
        if rsvp:
            out = {"re": mid}
            reply_blobs: List[bytes] = []
            if reply is not None:
                out.update(encode_obj(reply, reply_blobs))
            _write_frame(writer, out, reply_blobs)

    # -- calling -----------------------------------------------------------------

    async def _peer(self, endpoint: str) -> _Peer:
        peer = self._peers.get(endpoint)
        if (
            peer is not None
            and not peer.writer.is_closing()
            # A finished reply-consumer means the remote hung up (EOF);
            # TCP would still accept writes, so check the task, not the
            # socket, and reconnect instead of waiting out the timeout.
            and not (peer.task is not None and peer.task.done())
        ):
            return peer
        address = self._directory.get(endpoint)
        if address is None:
            raise NetworkError(f"endpoint {endpoint!r} is not registered")
        try:
            reader, writer = await asyncio.open_connection(*address)
        except (ConnectionError, OSError) as exc:
            raise NetworkError(f"cannot reach {endpoint!r}: {exc}") from exc
        peer = _Peer(reader, writer)
        peer.task = asyncio.ensure_future(self._consume_replies(endpoint, peer))
        self._peers[endpoint] = peer
        return peer

    async def _consume_replies(self, endpoint: str, peer: _Peer) -> None:
        try:
            while True:
                frame = await _read_frame(peer.reader)
                if frame is None:
                    break
                envelope = frame[0]
                future = peer.pending.pop(envelope.get("re"), None)
                if future is None or future.done():
                    continue
                if "err" in envelope:
                    future.set_exception(
                        NetworkError(
                            f"{endpoint!r} failed: {envelope['err']}"
                        )
                    )
                else:
                    future.set_result(frame)
        except NetworkError:
            pass  # malformed reply: the stream is unusable
        finally:
            # EOF, a malformed frame or cancellation: this connection is
            # done (the next request reconnects), so release its socket.
            peer.writer.close()
            failure = NetworkError(f"connection to {endpoint!r} lost")
            for future in peer.pending.values():
                if not future.done():
                    future.set_exception(failure)
            peer.pending.clear()

    async def request(self, endpoint: str, message):
        envelope, blobs = await self._roundtrip(endpoint, message, rsvp=True)
        if envelope.get("kind") is None:
            reply = None
        else:
            try:
                reply = decode_obj(envelope, blobs)
            except CodecError as exc:
                raise NetworkError(
                    f"malformed reply from {endpoint!r}: {exc}"
                ) from exc
        self._note(endpoint, message, reply)
        return reply

    async def send(self, endpoint: str, message) -> None:
        await self._roundtrip(endpoint, message, rsvp=False)
        self._note(endpoint, message)

    async def _roundtrip(self, endpoint: str, message, rsvp: bool):
        peer = await self._peer(endpoint)
        mid = next(self._mids)
        blobs: List[bytes] = []
        envelope = encode_obj(message, blobs)
        envelope["mid"] = mid
        envelope["rsvp"] = rsvp
        future = None
        if rsvp:
            future = asyncio.get_running_loop().create_future()
            peer.pending[mid] = future
        try:
            _write_frame(peer.writer, envelope, blobs)
            await peer.writer.drain()
        except (ConnectionError, OSError) as exc:
            peer.pending.pop(mid, None)
            raise NetworkError(f"send to {endpoint!r} failed: {exc}") from exc
        if not rsvp:
            return None
        try:
            return await asyncio.wait_for(future, self.reply_timeout)
        except asyncio.TimeoutError as exc:
            peer.pending.pop(mid, None)
            raise NetworkError(
                f"no reply from {endpoint!r} within {self.reply_timeout}s"
            ) from exc

    # -- lifecycle ---------------------------------------------------------------

    async def close(self) -> None:
        """Shut every server and client connection down cleanly."""
        if self._closed:
            return
        self._closed = True
        for name in list(self._servers):
            await self.stop(name)
        for peer in self._peers.values():
            if peer.task is not None:
                peer.task.cancel()
            peer.writer.close()
        for peer in self._peers.values():
            if peer.task is not None:
                try:
                    await peer.task
                except (asyncio.CancelledError, Exception):
                    pass
        self._peers.clear()

    @property
    def directory(self) -> Dict[str, Tuple[str, int]]:
        return dict(self._directory)
