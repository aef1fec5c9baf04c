"""The asyncio mini-cluster end-to-end (real sockets, no simulator).

Small configs keep this in CI-smoke territory: three DataNodes, a few
multi-block files, enough reads per phase to exercise the Zipf head.
"""

import asyncio
import threading

import pytest

from repro.transport.aio import AsyncioTransport
from repro.transport.real import (
    DataNodeService,
    NameNodeService,
    block_payload,
    run_real_demo,
)


class TestRealDemo:
    def test_demo_completes_with_migration_benefit(self):
        result = run_real_demo(nodes=3, files=4, reads=30, seed=0)
        assert result.ok, result.errors
        assert result.blocks_lost == 0
        assert result.nodes == 3 and result.files == 4
        assert result.blocks == result.files * 2
        # Phase 1 runs all-disk; the migration moves the hot half up.
        assert result.phase1_ram_reads == 0
        assert result.phase2_ram_reads > 0

    def test_demo_is_reproducible_in_shape(self):
        first = run_real_demo(nodes=3, files=3, reads=20, seed=7)
        second = run_real_demo(nodes=3, files=3, reads=20, seed=7)
        # Wall-clock latencies differ; placement and routing must not.
        assert first.ok and second.ok
        assert first.blocks == second.blocks
        assert first.phase2_ram_reads == second.phase2_ram_reads

    def test_replication_pipeline_observed(self):
        result = run_real_demo(nodes=4, files=3, reads=12, seed=1)
        assert result.ok, result.errors
        # Replication 2: every block write crosses one store-and-forward
        # hop, counted on whichever node forwarded it.
        assert sum(result.pipeline_depth) == result.blocks

    def test_summary_mentions_slo_stats(self):
        result = run_real_demo(nodes=3, files=3, reads=16, seed=3)
        text = result.summary()
        assert "p99" in text and "ram_reads" in text
        payload = result.to_dict()
        assert payload["blocks_lost"] == 0
        assert payload["phase2"]["ram_reads"] == result.phase2_ram_reads

    def test_fewer_than_three_nodes_rejected(self):
        with pytest.raises(ValueError, match="3"):
            run_real_demo(nodes=2)


class TestDataNodeStop:
    def test_stop_ends_a_fast_heartbeat_loop(self):
        """``stop`` must end the heartbeat loop even when its cancellation
        lands together with a heartbeat reply (Python 3.11's ``wait_for``
        can swallow it).  Half-millisecond heartbeats keep a reply in
        flight at almost every stop; one hang fails the hard deadline."""

        async def cycles():
            transport = AsyncioTransport(reply_timeout=5.0)
            await NameNodeService(transport, ("node0",)).start()
            try:
                for i in range(300):
                    datanode = DataNodeService("node0", transport)
                    await datanode.start(heartbeat_interval=0.0005)
                    await asyncio.sleep(0.0003 * (i % 7))
                    await datanode.stop()
                    assert datanode._heartbeat_task is None
            finally:
                await transport.close()

        # A hung stop() also ignores asyncio's own timeouts, so the
        # deadline is a thread join.
        outcome = {}

        def run():
            try:
                asyncio.run(cycles())
            except BaseException as exc:
                outcome["error"] = exc

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(30.0)
        assert not worker.is_alive(), "DataNodeService.stop hung"
        if "error" in outcome:
            raise outcome["error"]


class TestBlockPayload:
    def test_payload_is_deterministic(self):
        assert block_payload("blk-1", 64) == block_payload("blk-1", 64)
        assert block_payload("blk-1", 64) != block_payload("blk-2", 64)

    def test_payload_length_matches(self):
        for nbytes in (1, 31, 32, 33, 1000):
            assert len(block_payload("b", nbytes)) == nbytes
