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

Every connection, on either side, is one :class:`asyncio.BufferedProtocol`
driven by the event loop's callbacks; no task sits reading a stream.

* **receive path** — frames up to :data:`RECV_BUFFER` bytes are parsed
  straight out of the connection's reusable receive buffer.  A larger
  frame (a block) gets a buffer of exactly its size: the bytes already
  received are copied in once and the socket fills the rest through
  ``recv_into``, so a block's payload is copied once in user space,
  from the frame into the message's ``bytes`` field.
* **serving** — a plain-function handler is called, and its reply
  written, inside the callback that completed the frame.  A coroutine
  handler runs as a task; frames that arrive meanwhile queue behind it
  and the connection stops reading until they are handled.
* **replies** resolve the caller's future from the receive callback;
  the reply timeout is one ``loop.call_later`` timer per request.
* **writes** honour the transport's flow control: a sender whose
  connection is over its high-water mark waits in ``drain``.

Delivery guarantees:

* **per-connection FIFO** — the server handles each connection's frames
  in arrival order and runs each handler to completion before the next
  frame, so two messages from one caller to one endpoint are handled in
  send order (the same order ``SimTransport`` gives);
* **no cross-endpoint ordering** — messages to different endpoints
  race, exactly like independent sockets;
* **errors surface as** :class:`~repro.net.network.NetworkError` — an
  unknown endpoint, a refused/reset connection, a handler crash, a
  malformed frame, or a reply timeout all raise it, mirroring the sim's
  failure surface.  A malformed frame drops the connection it came on;
  so does a reply timeout, since every later frame on that connection
  would queue behind the handler that did not answer.

Handlers may be plain functions or coroutines; replies are codec-encoded
messages, so anything the wire format carries can cross the socket.
"""

from __future__ import annotations

import asyncio
import itertools
import struct
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

from .base import NetworkError, Transport
from .messages import CodecError, decode_obj, encode_obj, pack, unpack

__all__ = ["AsyncioTransport", "NetworkError"]

_HEADER = struct.Struct(">I")
#: Frames beyond this are a protocol error (a block plus envelope
#: overhead fits comfortably; this bounds a malformed length prefix).
MAX_FRAME = 64 * 1024 * 1024
#: Bytes in each connection's reusable receive buffer.  A frame that
#: does not fit (prefix included) gets an exact-size buffer of its own.
RECV_BUFFER = 64 * 1024


class _Framed(asyncio.BufferedProtocol):
    """One connection's framing: length-prefixed frames in, each handed
    to :meth:`frame_received` as ``(envelope, blobs)``; frames out; and
    write flow control."""

    def __init__(self):
        self.transport: Optional[asyncio.Transport] = None
        #: Unparsed bytes always start at offset 0; ``_end`` is one past
        #: the last byte received.
        self._buffer = memoryview(bytearray(RECV_BUFFER))
        self._end = 0
        #: The frame being received into its own buffer, and its fill.
        self._large: Optional[memoryview] = None
        self._filled = 0
        self._paused = False
        self._drain_waiters: List[asyncio.Future] = []
        self._lost: Optional[asyncio.Future] = None

    # -- receiving ---------------------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport
        self._lost = asyncio.get_running_loop().create_future()

    def get_buffer(self, sizehint: int) -> memoryview:
        if self._large is not None:
            return self._large[self._filled :]
        return self._buffer[self._end :]

    def buffer_updated(self, nbytes: int) -> None:
        try:
            self.feed(nbytes)
        except NetworkError:
            self.transport.abort()  # the stream is unusable

    def feed(self, nbytes: int) -> None:
        """Take ``nbytes`` just written into :meth:`get_buffer`'s buffer
        and hand on every frame that is now complete.  Raises
        :class:`NetworkError` on an oversized or malformed frame."""
        if self._large is not None:
            self._filled += nbytes
            if self._filled == len(self._large):
                frame, self._large = self._large, None
                self._deliver(frame)
            return
        buffer = self._buffer
        start, end = 0, self._end + nbytes
        self._end = end
        while end - start >= _HEADER.size:
            (length,) = _HEADER.unpack_from(buffer, start)
            if length > MAX_FRAME:
                raise NetworkError(f"oversized frame ({length} bytes)")
            body = start + _HEADER.size
            if body + length > end:
                if _HEADER.size + length > RECV_BUFFER:
                    large = memoryview(bytearray(length))
                    self._filled = end - body
                    large[: self._filled] = buffer[body:end]
                    self._large = large
                    start = end
                break
            start = body + length
            self._deliver(buffer[body:start])
        if start:
            # Move the partial frame to the front so it has room to grow.
            buffer[: end - start] = buffer[start:end]
            self._end = end - start

    def _deliver(self, frame) -> None:
        try:
            envelope, blobs = unpack(frame)
        except CodecError as exc:
            raise NetworkError(f"malformed frame: {exc}") from exc
        self.frame_received(envelope, blobs)

    def frame_received(self, envelope: dict, blobs: List[bytes]) -> None:
        raise NotImplementedError

    def connection_lost(self, exc) -> None:
        self._wake_drainers()
        if self._lost is not None and not self._lost.done():
            self._lost.set_result(None)

    # -- sending -----------------------------------------------------------------

    @property
    def closing(self) -> bool:
        return self.transport is None or self.transport.is_closing()

    def write_frame(self, envelope: dict, blobs: Sequence[bytes] = ()) -> None:
        if self.closing:
            return
        parts = pack(envelope, blobs)
        # Prefix and envelope go out as one write; each blob then goes to
        # the socket as itself instead of through a joined copy.
        self.transport.write(
            b"".join((_HEADER.pack(sum(map(len, parts))), *parts[:2]))
        )
        for blob in parts[2:]:
            self.transport.write(blob)

    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        self._wake_drainers()

    def _wake_drainers(self) -> None:
        for waiter in self._drain_waiters:
            if not waiter.done():
                waiter.set_result(None)
        self._drain_waiters.clear()

    async def drain(self) -> None:
        """Wait while the connection is over its write high-water mark."""
        if self._paused and not self.closing:
            waiter = asyncio.get_running_loop().create_future()
            self._drain_waiters.append(waiter)
            await waiter

    async def wait_closed(self) -> None:
        if self._lost is not None:
            await self._lost


class _Serving(_Framed):
    """The server side of one connection to an endpoint."""

    def __init__(self, owner: "AsyncioTransport", name: str):
        super().__init__()
        self._owner = owner
        self._name = name
        #: Frames waiting behind a running coroutine handler.
        self._backlog: Deque[Tuple[dict, List[bytes]]] = deque()
        #: The next coroutine handler to await: ``(mid, rsvp, coroutine)``.
        self._next: Optional[tuple] = None
        self.task: Optional[asyncio.Task] = None

    def connection_made(self, transport) -> None:
        super().connection_made(transport)
        self._owner._connections.setdefault(self._name, set()).add(self)

    def connection_lost(self, exc) -> None:
        super().connection_lost(exc)
        self._owner._connections.get(self._name, set()).discard(self)
        self._backlog.clear()
        if self.task is not None:
            self.task.cancel()
        if self._next is not None:
            self._next[2].close()  # never started: nothing to cancel
            self._next = None

    def frame_received(self, envelope: dict, blobs: List[bytes]) -> None:
        if self.task is not None:
            if not self._backlog:
                self.transport.pause_reading()
            self._backlog.append((envelope, blobs))
            return
        self._next = self._handle(envelope, blobs)
        if self._next is not None:
            self.task = asyncio.get_running_loop().create_task(self._run())

    def _handle(self, envelope: dict, blobs: List[bytes]) -> Optional[tuple]:
        """Run the handler on one frame.  A plain handler is answered
        here; a coroutine comes back as ``(mid, rsvp, coroutine)``."""
        mid = envelope.get("mid")
        rsvp = envelope.get("rsvp", False)
        try:
            reply = self._owner._handler(self._name)(decode_obj(envelope, blobs))
        except Exception as exc:
            self._answer(mid, rsvp, error=exc)
            return None
        if asyncio.iscoroutine(reply):
            return (mid, rsvp, reply)
        self._answer(mid, rsvp, reply)
        return None

    async def _run(self) -> None:
        """Await coroutine handlers one at a time, handling the frames
        that queued behind each before the next."""
        while self._next is not None:
            (mid, rsvp, pending), self._next = self._next, None
            try:
                reply = await pending
            except Exception as exc:
                self._answer(mid, rsvp, error=exc)
            else:
                self._answer(mid, rsvp, reply)
            while self._next is None and self._backlog:
                self._next = self._handle(*self._backlog.popleft())
        self.task = None
        if not self.closing and not self._paused:
            self.transport.resume_reading()

    def _answer(self, mid, rsvp: bool, reply=None, error=None) -> None:
        if not rsvp:
            return
        out = {"re": mid}
        blobs: List[bytes] = []
        if error is None and reply is not None:
            try:
                out.update(encode_obj(reply, blobs))
            except Exception as exc:
                error = exc
        if error is not None:
            out, blobs = {"re": mid, "err": f"{error}"}, []
        self.write_frame(out, blobs)

    # A peer that does not read its replies stops this side reading its
    # requests, so neither side buffers without bound.
    def pause_writing(self) -> None:
        super().pause_writing()
        if not self.closing:
            self.transport.pause_reading()

    def resume_writing(self) -> None:
        super().resume_writing()
        if not self.closing and self.task is None:
            self.transport.resume_reading()

    async def wait_closed(self) -> None:
        await super().wait_closed()
        if self.task is not None:
            await asyncio.wait({self.task})


class _Calling(_Framed):
    """The client side of one persistent connection to an endpoint."""

    def __init__(self, endpoint: str):
        super().__init__()
        self.endpoint = endpoint
        self.pending: Dict[int, asyncio.Future] = {}

    def frame_received(self, envelope: dict, blobs: List[bytes]) -> None:
        future = self.pending.pop(envelope.get("re"), None)
        if future is None or future.done():
            return
        if "err" in envelope:
            future.set_exception(
                NetworkError(f"{self.endpoint!r} failed: {envelope['err']}")
            )
        else:
            future.set_result((envelope, blobs))

    def expire(self, mid: int, timeout: float) -> None:
        """The reply timer for ``mid`` ran out: fail it and drop the
        connection (its later replies would queue behind this one)."""
        future = self.pending.pop(mid, None)
        if future is None or future.done():
            return  # answered in the same loop turn
        future.set_exception(
            NetworkError(f"no reply from {self.endpoint!r} within {timeout}s")
        )
        self.transport.abort()

    def connection_lost(self, exc) -> None:
        super().connection_lost(exc)
        failure = NetworkError(f"connection to {self.endpoint!r} lost")
        for future in self.pending.values():
            if not future.done():
                future.set_exception(failure)
        self.pending.clear()


class AsyncioTransport(Transport):
    """Real sockets on localhost; the ``repro real`` backend."""

    def __init__(self, host: str = "127.0.0.1", reply_timeout: float = 30.0):
        super().__init__()
        self.host = host
        self.reply_timeout = reply_timeout
        self._servers: Dict[str, asyncio.base_events.Server] = {}
        #: Live server-side connections per endpoint.  ``Server.close``
        #: only stops *listening*; established connections must be
        #: reset explicitly or they outlive the endpoint.
        self._connections: Dict[str, Set[_Serving]] = {}
        self._directory: Dict[str, Tuple[str, int]] = {}
        self._peers: Dict[str, _Calling] = {}
        self._mids = itertools.count(1)
        self._closed = False

    # -- serving -----------------------------------------------------------------

    async def serve(self, name: str, handler) -> Tuple[str, int]:
        """Start a TCP service for ``name``; returns its address."""
        self.register(name, handler)
        server = await asyncio.get_running_loop().create_server(
            lambda: _Serving(self, name), self.host, 0
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
        connections = self._connections.pop(name, set())
        for connection in connections:
            connection.transport.abort()  # its handler is cancelled as it goes
        for connection in connections:
            await connection.wait_closed()
        if server is not None:
            await server.wait_closed()

    # -- calling -----------------------------------------------------------------

    async def _peer(self, endpoint: str) -> _Calling:
        peer = self._peers.get(endpoint)
        if peer is not None and not peer.closing:
            return peer
        address = self._directory.get(endpoint)
        if address is None:
            raise NetworkError(f"endpoint {endpoint!r} is not registered")
        try:
            _, peer = await asyncio.get_running_loop().create_connection(
                lambda: _Calling(endpoint), *address
            )
        except OSError as exc:
            raise NetworkError(f"cannot reach {endpoint!r}: {exc}") from exc
        current = self._peers.get(endpoint)
        if current is not None and not current.closing:
            # A concurrent caller connected first; keep one connection
            # per endpoint so its FIFO order holds.
            peer.transport.abort()
            return current
        self._peers[endpoint] = peer
        return peer

    async def request(self, endpoint: str, message):
        envelope, blobs = await self._roundtrip(endpoint, message, rsvp=True)
        if envelope.get("kind") is None:
            return None
        try:
            return decode_obj(envelope, blobs)
        except CodecError as exc:
            raise NetworkError(
                f"malformed reply from {endpoint!r}: {exc}"
            ) from exc

    async def send(self, endpoint: str, message) -> None:
        await self._roundtrip(endpoint, message, rsvp=False)

    async def _roundtrip(self, endpoint: str, message, rsvp: bool):
        peer = await self._peer(endpoint)
        mid = next(self._mids)
        blobs: List[bytes] = []
        envelope = encode_obj(message, blobs)
        envelope["mid"] = mid
        envelope["rsvp"] = rsvp
        if not rsvp:
            peer.write_frame(envelope, blobs)
            await peer.drain()
            if peer.closing:
                raise NetworkError(f"send to {endpoint!r} failed: connection lost")
            return None
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        peer.pending[mid] = future
        timer = loop.call_later(self.reply_timeout, peer.expire, mid, self.reply_timeout)
        try:
            peer.write_frame(envelope, blobs)
            await peer.drain()
            return await future
        finally:
            timer.cancel()
            peer.pending.pop(mid, None)

    # -- lifecycle ---------------------------------------------------------------

    async def close(self) -> None:
        """Shut every server and client connection down cleanly."""
        if self._closed:
            return
        self._closed = True
        for name in list(self._servers):
            await self.stop(name)
        peers = list(self._peers.values())
        self._peers.clear()
        for peer in peers:
            peer.transport.abort()
        for peer in peers:
            await peer.wait_closed()

    @property
    def directory(self) -> Dict[str, Tuple[str, int]]:
        return dict(self._directory)
