"""Malformed frames on the socket path fail fast as ``NetworkError``.

A frame that lies about its layout (a short blob section, blob lengths
that do not fill the frame, a dangling blob reference, an envelope
length beyond the frame) must never leave a caller waiting for the
reply timeout: the reader raises, the receiving side drops the
connection or answers with an error, and the caller sees
``NetworkError`` — whichever side sent the bad frame.  Every test runs
under a hard deadline well below the transport's reply timeout.
"""

import asyncio
import struct

import pytest

from repro.net import NetworkError
from repro.transport import AsyncioTransport, aio
from repro.transport.messages import Ack, BlockReadReply, BlockReadRequest

from .test_messages import MALFORMED, malformed_frames

#: Seconds; the transports below wait up to a minute for a reply, so a
#: test that finishes in time proves the failure did not come from it.
DEADLINE = 5.0
_LEN = struct.Struct(">I")


def _run(coro):
    return asyncio.run(asyncio.wait_for(coro, DEADLINE))


#: A dangling blob reference is well framed; only decoding the message
#: finds it, so the reader passes it on (the round trips below cover it).
_BAD_LAYOUT = [name for name in MALFORMED if name != "blob-reference-out-of-range"]


@pytest.mark.parametrize("name", _BAD_LAYOUT)
def test_read_frame_raises_network_error(name):
    frame = malformed_frames()[name]

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(_LEN.pack(len(frame)) + frame)
        reader.feed_eof()
        with pytest.raises(NetworkError, match="malformed frame"):
            await aio._read_frame(reader)

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
