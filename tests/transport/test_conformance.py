"""Transport conformance: both backends honor the same contract.

Each test runs against :class:`SimTransport` (direct calls) and
:class:`AsyncioTransport` (real TCP on localhost) through a thin sync
harness, asserting the guarantees callers rely on: per-caller delivery
order, request/reply matching, one-way sends, endpoint lifecycle, and
``NetworkError`` for anything unreachable.
"""

import asyncio
import threading

import pytest

from repro.net import NetworkError
from repro.transport import AsyncioTransport, SimTransport
from repro.transport.messages import (
    Ack,
    BlockReadReply,
    BlockReadRequest,
    BlockWriteReply,
    BlockWriteRequest,
    HeartbeatMsg,
)


class SimHarness:
    """SimTransport behind the common sync facade."""

    name = "sim"

    def __init__(self):
        self.transport = SimTransport()

    def serve(self, name, handler):
        self.transport.register(name, handler)

    def stop(self, name):
        self.transport.deregister(name)

    def request(self, endpoint, message):
        return self.transport.request(endpoint, message)

    def send(self, endpoint, message):
        self.transport.send(endpoint, message)

    def close(self):
        pass


class AioHarness:
    """AsyncioTransport driven from a background event loop thread."""

    name = "aio"

    def __init__(self):
        self.transport = AsyncioTransport(reply_timeout=10.0)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(
            timeout=30
        )

    def serve(self, name, handler):
        self._call(self.transport.serve(name, handler))

    def stop(self, name):
        self._call(self.transport.stop(name))

    def request(self, endpoint, message):
        return self._call(self.transport.request(endpoint, message))

    def send(self, endpoint, message):
        self._call(self.transport.send(endpoint, message))

    def close(self):
        self._call(self.transport.close())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=5)
        self.loop.close()


@pytest.fixture(params=[SimHarness, AioHarness], ids=["sim", "aio"])
def harness(request):
    h = request.param()
    yield h
    h.close()


class TestRequestReply:
    def test_reply_reaches_the_right_caller(self, harness):
        harness.serve(
            "echo", lambda msg: BlockReadReply(ok=True, data=msg.block_id.encode())
        )
        for block_id in ("blk-a", "blk-b", "blk-ü"):
            reply = harness.request("echo", BlockReadRequest(block_id))
            assert reply.data.decode() == block_id

    def test_typed_messages_cross_intact(self, harness):
        received = []

        def handler(msg):
            received.append(msg)
            return BlockWriteReply(ok=True, stored=("n1",))

        harness.serve("dn", handler)
        request = BlockWriteRequest(
            block_id="blk-0", path="/f", index=0, data=b"\x00\xffpayload",
            pipeline=("n2", "n3"),
        )
        reply = harness.request("dn", request)
        assert reply == BlockWriteReply(ok=True, stored=("n1",))
        assert received == [request]
        assert isinstance(received[0].pipeline, tuple)

    def test_distinct_endpoints_are_independent(self, harness):
        harness.serve("a", lambda msg: Ack(True))
        harness.serve("b", lambda msg: Ack(False))
        assert harness.request("a", BlockReadRequest("x")).ok is True
        assert harness.request("b", BlockReadRequest("x")).ok is False


class TestOrdering:
    def test_sends_from_one_caller_arrive_in_order(self, harness):
        seen = []

        def handler(msg):
            if isinstance(msg, HeartbeatMsg):
                seen.append(msg.seq)
                return None
            return Ack(True)

        harness.serve("nn", handler)
        for seq in range(20):
            harness.send("nn", HeartbeatMsg(node="n1", seq=seq, tier_blocks={}))
        # Per-connection FIFO: the probe's reply means every earlier
        # one-way send on this connection has been handled.
        harness.request("nn", BlockReadRequest("probe"))
        assert seen == list(range(20))

    def test_send_then_request_ordered(self, harness):
        """A request issued after one-way sends observes their effects
        (per-connection FIFO)."""
        seen = []

        def handler(msg):
            if isinstance(msg, HeartbeatMsg):
                seen.append(msg.seq)
                return None
            return Ack(len(seen) == 3)

        harness.serve("nn", handler)
        for seq in range(3):
            harness.send("nn", HeartbeatMsg(node="n1", seq=seq, tier_blocks={}))
        assert harness.request("nn", BlockReadRequest("probe")).ok


class TestEndpointLifecycle:
    def test_unknown_endpoint_raises_network_error(self, harness):
        with pytest.raises(NetworkError, match="not registered"):
            harness.request("nowhere", BlockReadRequest("x"))

    def test_stopped_endpoint_raises_network_error(self, harness):
        harness.serve("dn", lambda msg: Ack(True))
        assert harness.request("dn", BlockReadRequest("x")).ok
        harness.stop("dn")
        with pytest.raises(NetworkError):
            harness.request("dn", BlockReadRequest("x"))

    def test_reregistered_endpoint_serves_again(self, harness):
        harness.serve("dn", lambda msg: Ack(True))
        harness.stop("dn")
        harness.serve("dn", lambda msg: Ack(False))
        assert harness.request("dn", BlockReadRequest("x")).ok is False

    def test_empty_endpoint_name_rejected(self, harness):
        with pytest.raises(ValueError):
            harness.transport.register("", lambda msg: None)


class TestAsyncioSpecifics:
    """Contract points only the socket backend can exhibit."""

    def test_concurrent_requests_match_replies_by_mid(self):
        harness = AioHarness()
        try:

            async def handler(msg):
                # Slow replies finish last: forces out-of-order completion
                # so mid-matching (not arrival order) must pair them up.
                await asyncio.sleep(0.05 if msg.block_id == "slow" else 0)
                return BlockReadReply(ok=True, data=msg.block_id.encode())

            harness.serve("dn2", handler)

            async def fan_out():
                return await asyncio.gather(
                    *(
                        harness.transport.request(
                            "dn2", BlockReadRequest(block_id)
                        )
                        for block_id in ("slow", "fast-1", "fast-2")
                    )
                )

            replies = harness._call(fan_out())
            assert [r.data.decode() for r in replies] == [
                "slow",
                "fast-1",
                "fast-2",
            ]
        finally:
            harness.close()

    def test_handler_crash_surfaces_as_network_error(self):
        harness = AioHarness()
        try:

            def handler(msg):
                raise RuntimeError("boom")

            harness.serve("dn3", handler)
            with pytest.raises(NetworkError, match="boom"):
                harness.request("dn3", BlockReadRequest("x"))
            # The connection survives a handler error.
            harness.transport.register(
                "dn3", lambda msg: Ack(True),
            )
        finally:
            harness.close()

    def test_directory_lists_served_endpoints(self):
        harness = AioHarness()
        try:
            harness.serve("dn4", lambda msg: Ack(True))
            host, port = harness.transport.directory["dn4"]
            assert host == "127.0.0.1" and port > 0
        finally:
            harness.close()
