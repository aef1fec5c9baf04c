"""Malformed frames, timeouts and backpressure on the socket path.

A frame that lies about its layout (a short blob section, blob lengths
that do not fill the frame, a dangling blob reference, an envelope
length beyond the frame) must never leave a caller waiting for the
reply timeout: the reader raises, the receiving side drops the
connection or answers with an error, and the caller sees
``NetworkError`` — whichever side sent the bad frame.  The same holds
for a handler that never answers and for a peer that stops reading:
the caller fails or waits in bounded, typed ways.  Every socket test
runs under a hard deadline well below the transport's reply timeout.
"""

import asyncio
import hashlib
import itertools
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import NetworkError
from repro.transport import aio
from repro.transport.aio import AsyncioTransport
from repro.transport.messages import (
    Ack,
    BlockReadReply,
    BlockReadRequest,
    BlockWriteRequest,
    encode,
    unpack,
)

from .test_messages import MALFORMED, malformed_frames

#: Seconds; the transports below wait up to a minute for a reply, so a
#: test that finishes in time proves the failure did not come from it.
DEADLINE = 5.0
_LEN = struct.Struct(">I")
MIB = 1 << 20


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, DEADLINE))


class _Collector(aio._Framed):
    """The framer alone: every complete frame lands in ``frames``."""

    def __init__(self):
        super().__init__()
        self.frames = []

    def frame_received(self, envelope, blobs):
        self.frames.append((envelope, blobs))


def _feed(framer, data, chunks=(1 << 30,)):
    """Write ``data`` into the framer the way the socket does — through
    ``get_buffer`` — in pieces no longer than the cycled ``chunks``."""
    data = memoryview(data)
    sizes = itertools.cycle(chunks)
    while data:
        buffer = framer.get_buffer(-1)
        assert len(buffer) > 0  # asyncio rejects an empty buffer too
        n = min(len(buffer), next(sizes), len(data))
        buffer[:n] = data[:n]
        data = data[n:]
        framer.feed(n)


#: A dangling blob reference is well framed; only decoding the message
#: finds it, so the reader passes it on (the round trips below cover it).
_BAD_LAYOUT = [name for name in MALFORMED if name != "blob-reference-out-of-range"]


@pytest.mark.parametrize("name", _BAD_LAYOUT)
def test_read_frame_raises_network_error(name):
    frame = malformed_frames()[name]
    with pytest.raises(NetworkError, match="malformed frame"):
        _feed(_Collector(), _LEN.pack(len(frame)) + frame)


def test_framer_passes_a_dangling_blob_reference_on():
    frame = malformed_frames()["blob-reference-out-of-range"]
    framer = _Collector()
    _feed(framer, _LEN.pack(len(frame)) + frame)
    assert framer.frames == [unpack(frame)]


def test_framer_rejects_an_oversized_length_prefix():
    with pytest.raises(NetworkError, match="oversized frame"):
        _feed(_Collector(), _LEN.pack(aio.MAX_FRAME + 1))


#: Blob sizes either side of the receive buffer, up to a 4 MiB block.
_blob_sizes = st.one_of(
    st.sampled_from(
        [0, 1, aio.RECV_BUFFER - 200, aio.RECV_BUFFER, aio.RECV_BUFFER + 1, 4 * MIB]
    ),
    st.integers(0, 4 * MIB),
)
#: Socket reads split anywhere: inside a prefix, an envelope or a blob.
_chunkings = st.lists(
    st.one_of(st.integers(1, 8), st.integers(1, 2 * aio.RECV_BUFFER), st.integers(1, 4 * MIB)),
    min_size=1,
    max_size=8,
)


@settings(max_examples=40, deadline=None)
@given(sizes=st.lists(_blob_sizes, min_size=1, max_size=4), chunks=_chunkings)
def test_any_chunking_decodes_like_whole_frames(sizes, chunks):
    frames = [
        encode(
            BlockReadReply(
                ok=True,
                tier="mem",
                nbytes=float(size),
                data=hashlib.shake_256(str(i).encode()).digest(size),
            )
        )
        for i, size in enumerate(sizes)
    ]
    framer = _Collector()
    _feed(framer, b"".join(_LEN.pack(len(frame)) + frame for frame in frames), chunks)
    assert framer.frames == [unpack(frame) for frame in frames]


def test_oversized_length_prefix_drops_the_connection():
    async def scenario():
        transport = AsyncioTransport(reply_timeout=60.0)
        handled = []
        try:
            await _serve_block(transport, handled)
            reader, writer = await asyncio.open_connection(*transport.directory["dn"])
            try:
                writer.write(_LEN.pack(aio.MAX_FRAME + 1) + b"\0" * 64)
                # The endpoint hangs up instead of waiting for 64 MiB.
                assert await reader.read() == b""
            finally:
                writer.close()
                await writer.wait_closed()
            assert handled == []
            reply = await transport.request("dn", BlockReadRequest("b0"))
            assert reply.data == b"abcd"
        finally:
            await transport.close()

    _run(scenario())


def test_reply_timeout_raises_and_the_next_request_succeeds():
    async def scenario():
        transport = AsyncioTransport(reply_timeout=0.2)
        calls = []

        async def handler(msg):
            calls.append(msg)
            if len(calls) == 1:
                await asyncio.get_running_loop().create_future()  # never answers
            return Ack(True)

        try:
            await transport.serve("dn", handler)
            with pytest.raises(NetworkError, match="no reply"):
                await transport.request("dn", BlockReadRequest("b0"))
            assert all(not peer.pending for peer in transport._peers.values())
            transport.reply_timeout = 2.0  # room for a slow CI host
            assert (await transport.request("dn", BlockReadRequest("b1"))).ok
            assert len(calls) == 2
        finally:
            await transport.close()

    _run(scenario())


def test_sender_to_a_peer_that_stopped_reading_waits_in_drain():
    async def scenario():
        transport = AsyncioTransport(reply_timeout=60.0)
        release = asyncio.Event()
        handled = []

        async def handler(msg):
            # The first one-way send parks the endpoint; it reads no
            # further frames until this returns.
            await release.wait()
            handled.append(msg)

        payload = bytes(MIB)
        try:
            await transport.serve("sink", handler)
            sent, blocked = 0, None
            for _ in range(64):
                send = asyncio.ensure_future(
                    transport.send("sink", BlockWriteRequest("b", "/f", 0, payload))
                )
                done, _ = await asyncio.wait({send}, timeout=0.5)
                if not done:
                    blocked = send
                    break
                send.result()
                sent += 1
            assert blocked is not None, "the sender buffered without bound"
            # What the sender holds is one frame past the high-water mark.
            buffered = transport._peers["sink"].transport.get_write_buffer_size()
            assert buffered < 2 * len(payload)
            release.set()
            await blocked
            # FIFO: the probe's reply means every earlier send was handled.
            await transport.request("sink", Ack())
            assert len(handled) == sent + 2
        finally:
            await transport.close()

    _run(scenario())


def _sending_malformed(monkeypatch, name, field):
    """Make every outgoing envelope carrying ``field`` (``"mid"`` for
    requests, ``"re"`` for replies) a malformed frame echoing its id."""
    pack = aio.pack

    def rogue_pack(envelope, blobs):
        if field not in envelope:
            return pack(envelope, blobs)
        ids = {key: envelope[key] for key in ("mid", "rsvp", "re") if key in envelope}
        return [malformed_frames(**ids)[name]]

    monkeypatch.setattr(aio, "pack", rogue_pack)


async def _serve_block(transport, handled):
    def handler(msg):
        handled.append(msg)
        return BlockReadReply(ok=True, tier="mem", nbytes=4.0, data=b"abcd")

    await transport.serve("dn", handler)


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_request_fails_the_caller(monkeypatch, name):
    async def scenario():
        transport = AsyncioTransport(reply_timeout=60.0)
        handled = []
        try:
            await _serve_block(transport, handled)
            _sending_malformed(monkeypatch, name, "mid")
            with pytest.raises(NetworkError):
                await transport.request("dn", BlockReadRequest("b0"))
            assert handled == []
            # The endpoint survives a bad caller and serves the next one.
            monkeypatch.undo()
            reply = await transport.request("dn", BlockReadRequest("b0"))
            assert reply.data == b"abcd"
        finally:
            await transport.close()

    _run(scenario())


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_reply_fails_the_caller(monkeypatch, name):
    async def scenario():
        transport = AsyncioTransport(reply_timeout=60.0)
        handled = []
        try:
            await _serve_block(transport, handled)
            _sending_malformed(monkeypatch, name, "re")
            with pytest.raises(NetworkError):
                await transport.request("dn", BlockReadRequest("b0"))
            assert len(handled) == 1
            monkeypatch.undo()
            assert await transport.request("dn", Ack()) is not None
        finally:
            await transport.close()

    _run(scenario())
