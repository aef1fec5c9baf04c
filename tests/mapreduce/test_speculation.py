"""Tests for speculative execution."""

import pytest

from repro import JobSpec, build_paper_testbed
from repro.mapreduce import EngineConfig
from repro.mapreduce.spec import SPECULATIVE_MAX_FRACTION
from repro.storage import GB, MB


def spec_cluster(**engine_kwargs):
    engine = EngineConfig(speculative_execution=True, **engine_kwargs)
    return build_paper_testbed(
        num_nodes=4, replication=2, seed=11, engine_config=engine
    )


class TestSpeculativeExecution:
    def test_slowed_disk_reads_at_the_slowed_bandwidth(self):
        """The tests below cripple node0's disk by assigning its
        bandwidth; a lone read must then run at the slowed rate."""
        cluster = spec_cluster()
        block = cluster.client.create_file(
            "/in", 64 * MB, replication=1, preferred_node="node0"
        ).blocks[0]
        slow = cluster.datanodes["node0"].disk
        slow.bandwidth = slow.bandwidth / 100
        read = cluster.client.read_block(block, "node0")
        assert (read.source, read.serving_node) == ("hdd", "node0")
        finished = []
        read.done.callbacks.append(lambda _event: finished.append(cluster.env.now))
        cluster.run()
        assert finished == [slow.latency + block.nbytes / slow.bandwidth]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(speculative_slowdown=1.0)

    def test_no_speculation_without_stragglers(self):
        """A uniform job on pinned inputs has no stragglers to speculate."""
        cluster = spec_cluster()
        cluster.client.create_file("/in", 512 * MB)
        cluster.pin_all_inputs()
        job = cluster.engine.submit_job(JobSpec("j", ("/in",)))
        cluster.run()
        assert job.speculative_attempts == 0

    def test_straggler_triggers_duplicate_attempt(self):
        """One deliberately slow node makes its maps straggle."""
        cluster = spec_cluster(speculative_slowdown=1.3)
        cluster.client.create_file("/in", 2 * GB, replication=2)
        # Cripple one node's disk so its locally-scheduled maps crawl;
        # duplicates run against the healthy replica holders.
        slow = cluster.datanodes["node0"].disk
        slow.bandwidth = slow.bandwidth / 100
        job = cluster.engine.submit_job(JobSpec("j", ("/in",)))
        cluster.run()
        assert job.speculative_attempts > 0
        # Duplicate attempts show up as extra -a1 task records.
        attempts = [
            t for t in cluster.collector.tasks if t.task_id.endswith("-a1")
        ]
        assert len(attempts) == job.speculative_attempts
        assert job.finished_at is not None

    def test_speculation_beats_waiting_for_straggler(self):
        def run(speculative):
            engine = EngineConfig(
                speculative_execution=speculative, speculative_slowdown=1.3
            )
            cluster = build_paper_testbed(
                num_nodes=4, replication=2, seed=11, engine_config=engine
            )
            cluster.client.create_file("/in", 2 * GB, replication=2)
            slow = cluster.datanodes["node0"].disk
            slow.bandwidth = slow.bandwidth / 100
            job = cluster.engine.submit_job(JobSpec("j", ("/in",)))
            cluster.run()
            return job.duration

        assert run(speculative=True) < run(speculative=False)

    def test_winner_only_counts_toward_shuffle(self):
        cluster = spec_cluster(speculative_slowdown=1.3)
        cluster.client.create_file("/in", 1 * GB, replication=2)
        slow = cluster.datanodes["node0"].disk
        slow.bandwidth = slow.bandwidth / 100
        job = cluster.engine.submit_job(
            JobSpec("j", ("/in",), shuffle_bytes=160 * MB, num_reduces=2)
        )
        cluster.run()
        total_shuffle = sum(job._map_output_by_node.values())
        assert total_shuffle == pytest.approx(160 * MB, rel=1e-6)


class TestSpeculationBudget:
    def test_max_fraction_caps_duplicates(self):
        engine = EngineConfig(
            speculative_execution=True, speculative_slowdown=1.1
        )
        cluster = build_paper_testbed(
            num_nodes=4, replication=2, seed=11, engine_config=engine
        )
        cluster.client.create_file("/in", 2 * GB, replication=2)
        # Two crippled disks straggle 14 of the 32 maps: more than the
        # budget allows, so the cap binds.
        for name in ("node0", "node1"):
            slow = cluster.datanodes[name].disk
            slow.bandwidth = slow.bandwidth / 100
        job = cluster.engine.submit_job(JobSpec("j", ("/in",)))
        cluster.run()
        assert job.speculative_attempts == max(
            1, int(SPECULATIVE_MAX_FRACTION * job.num_maps)
        )
