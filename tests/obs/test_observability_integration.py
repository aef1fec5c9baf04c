"""End-to-end observability: determinism, zero overhead, counter truth."""

import collections
import json

import pytest

from repro import IgnemConfig, ObservabilityConfig, build_paper_testbed
from repro.experiments.swim_runs import prepare_swim_cluster
from repro.obs import validate_trace
from repro.storage import GB, MB


def _run_swim_traced(tmp_path, label, num_jobs=6, seed=3):
    """One small traced SWIM run; returns (cluster, trace path)."""
    trace_path = tmp_path / f"{label}.jsonl"
    config = ObservabilityConfig(trace_path=str(trace_path))
    cluster, _, specs, arrivals = prepare_swim_cluster(
        "ignem", seed=seed, num_jobs=num_jobs, observability=config
    )
    done = cluster.engine.run_workload(specs, arrivals, implicit_eviction=True)
    cluster.run(until=done)
    return cluster, trace_path


def _job_outcomes(cluster):
    return [
        (record.job_id, record.submitted_at, record.end)
        for record in cluster.collector.jobs
    ]


class TestTraceDeterminism:
    def test_same_seed_emits_byte_identical_jsonl(self, tmp_path):
        _, first = _run_swim_traced(tmp_path, "first")
        _, second = _run_swim_traced(tmp_path, "second")
        assert first.read_bytes() == second.read_bytes()
        assert first.stat().st_size > 0

    def test_emitted_trace_validates_against_schema(self, tmp_path):
        _, path = _run_swim_traced(tmp_path, "validated")
        assert validate_trace(path) == []

    def test_trace_path_alone_switches_tracing_on(self, tmp_path):
        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.json"
        cluster = build_paper_testbed(
            num_nodes=2,
            observability=ObservabilityConfig(
                trace_path=str(trace_path), metrics_path=str(metrics_path)
            ),
        )
        cluster.run(until=5)
        assert cluster.obs.active
        assert trace_path.exists()
        assert validate_trace(trace_path) == []
        assert json.loads(metrics_path.read_text())


class TestZeroOverheadWhenDisabled:
    def test_disabled_by_default_and_writes_nothing(self, tmp_path):
        cluster = build_paper_testbed(seed=3)
        assert cluster.config.observability.trace_path is None
        assert cluster.obs.active is False
        cluster.client.create_file("/f", 128 * MB)
        cluster.run()
        assert cluster.obs.tracer is None
        assert list(tmp_path.iterdir()) == []

    def test_tracing_never_changes_simulation_outcomes(self, tmp_path):
        traced, _ = _run_swim_traced(tmp_path, "obs-on")

        plain, _, specs, arrivals = prepare_swim_cluster(
            "ignem", seed=3, num_jobs=6
        )
        done = plain.engine.run_workload(
            specs, arrivals, implicit_eviction=True
        )
        plain.run(until=done)

        assert plain.obs.active is False
        assert _job_outcomes(plain) == _job_outcomes(traced)
        assert plain.env.now == traced.env.now
        assert json.dumps(plain.collector.summary(), sort_keys=True) == (
            json.dumps(traced.collector.summary(), sort_keys=True)
        )


class TestRepairTraceSpans:
    def _repaired_cluster(self, tmp_path, label):
        trace_path = tmp_path / f"{label}.jsonl"
        cluster = build_paper_testbed(
            seed=3,
            observability=ObservabilityConfig(trace_path=str(trace_path)),
        )
        cluster.enable_rereplication()
        cluster.client.create_file("/f", 256 * MB)
        victim = cluster.namenode.get_block_locations(
            cluster.namenode.file_blocks("/f")[0].block_id
        )[0]
        cluster.fail_node(victim)
        cluster.decommission(
            next(n for n in cluster.node_names() if n != victim)
        )
        cluster.run()  # dumps the trace to trace_path on return
        return cluster, trace_path

    def test_repair_copies_and_decommission_emit_spans(self, tmp_path):
        cluster, path = self._repaired_cluster(tmp_path, "repair")
        events = [
            event
            for event in map(json.loads, path.read_text().splitlines())
            if event["cat"] == "repair"
        ]
        copies = [
            e
            for e in events
            if e.get("name") == "dfs.repair.copy" and e.get("ph") == "X"
        ]
        assert (
            len(copies)
            == cluster.metrics.counter("dfs.repair.copies_completed").value
        )
        assert all(e["args"]["outcome"] == "completed" for e in copies)
        assert {e["args"]["reason"] for e in copies} == {
            "repair",
            "decommission",
        }
        decommissions = [
            e for e in events if e.get("name") == "dfs.repair.decommission"
        ]
        assert len(decommissions) == 1

    def test_repair_trace_validates_against_schema(self, tmp_path):
        _, path = self._repaired_cluster(tmp_path, "schema")
        assert validate_trace(path) == []

    def test_repair_metrics_mirror_monitor_counters(self, tmp_path):
        cluster, _ = self._repaired_cluster(tmp_path, "metrics")
        registry = cluster.metrics
        assert (
            registry.counter("dfs.repair.decommissions_completed").value == 1
        )
        pulls = registry.snapshot()["pulls"]
        assert pulls["dfs.repair.under_replicated_blocks"] == 0


class _DropFirst:
    def __init__(self, n):
        self.remaining = n

    def __call__(self, node):
        if self.remaining > 0:
            self.remaining -= 1
            return "lost"
        return None


def _small_ignem_cluster(ha=False, **ignem_kwargs):
    cluster = build_paper_testbed(num_nodes=4, replication=2, seed=13)
    ignem_kwargs.setdefault("buffer_capacity", 1 * GB)
    cluster.enable_ignem(IgnemConfig(**ignem_kwargs), ha=ha)
    return cluster


class TestCounterCorrectness:
    def test_migration_and_eviction_counters_match_collector(self, tmp_path):
        cluster, _ = _run_swim_traced(tmp_path, "counted")
        registry = cluster.metrics
        collector = cluster.collector

        completed = len(collector.completed_migrations())
        assert completed > 0
        assert registry.value("ignem.slave.migrations_completed") == completed
        assert registry.histogram(
            "ignem.slave.migration_seconds"
        ).count == completed
        assert registry.histogram(
            "ignem.slave.queue_wait_seconds"
        ).count >= completed

        by_reason = collections.Counter(
            record.reason for record in collector.evictions
        )
        assert by_reason  # the workload evicts at least once
        for reason, count in by_reason.items():
            assert (
                registry.value(f"ignem.slave.evictions.{reason}") == count
            ), reason

    def test_command_retry_counter_counts_lost_sends(self):
        cluster = _small_ignem_cluster()
        master = cluster.ignem_master
        master.rpc_fault = _DropFirst(1)
        cluster.rm.register_job("j1")
        cluster.client.create_file("/f", 128 * MB)
        master.request_migration(["/f"], "j1")
        cluster.run()

        assert cluster.metrics.value("ignem.master.command_retries") == 1
        assert cluster.metrics.value("ignem.master.commands_sent") >= 1


class TestRegistryCounters:
    """The registry is the single home for master RPC/workload tallies
    (the PR 3 deprecated attribute views are gone)."""

    def test_master_attrs_are_gone_and_registry_counts(self):
        cluster = _small_ignem_cluster()
        master = cluster.ignem_master
        master.rpc_fault = _DropFirst(2)
        cluster.rm.register_job("j1")
        cluster.client.create_file("/f", 256 * MB)
        master.request_migration(["/f"], "j1")
        cluster.run()

        registry = cluster.metrics
        for attr in (
            "commands_sent",
            "command_retries",
            "commands_rerouted",
            "commands_abandoned",
            "migration_requests",
            "eviction_requests",
        ):
            with pytest.raises(AttributeError):
                getattr(master, attr)
        assert registry.value("ignem.master.migration_requests") == 1
        assert registry.value("ignem.master.command_retries") == 2
        assert registry.value("ignem.master.commands_sent") >= 1

    def test_ha_pair_attrs_are_gone_and_share_one_registry(self):
        cluster = _small_ignem_cluster(ha=True)
        pair = cluster.ignem_master
        cluster.rm.register_job("j1")
        cluster.client.create_file("/f", 256 * MB)
        pair.request_migration(["/f"], "j1")
        cluster.run()
        pair.fail_primary()
        cluster.rm.register_job("j2")
        cluster.client.create_file("/g", 128 * MB)
        pair.request_migration(["/g"], "j2")
        cluster.run()

        registry = cluster.metrics
        assert registry is pair.metrics
        for attr in (
            "commands_sent",
            "command_retries",
            "commands_rerouted",
            "commands_abandoned",
        ):
            with pytest.raises(AttributeError):
                getattr(pair, attr)
        # Both masters of the pair report into the one shared registry,
        # so the counters carry across the failover.
        assert registry.value("ignem.master.migration_requests") == 2
        assert registry.value("ignem.master.commands_sent") > 0


class TestNetTransferSpans:
    def test_one_span_per_transfer_closed_by_its_legs(self, tmp_path):
        """A transfer's span ends when its last NIC leg completes, or at
        the first leg's failure; a same-node copy ends at once."""
        trace_path = tmp_path / "net.jsonl"
        cluster = build_paper_testbed(
            seed=3,
            num_nodes=4,
            observability=ObservabilityConfig(trace_path=str(trace_path)),
        )
        network = cluster.network
        node0, node1, node2, node3 = cluster.node_names()
        network.transfer(node0, node1, 64 * MB, tag="whole")
        network.transfer(node0, node0, 64 * MB, tag="loopback")
        cut = network.transfer(node2, node3, 640 * MB, tag="cut")
        cut.callbacks.append(lambda _event: None)  # its failure is waited on
        cluster.env.timeout(0.1).callbacks.append(
            lambda _event: network.fail_node(node3)
        )
        cluster.run()
        spans = collections.defaultdict(list)
        for line in trace_path.read_text().splitlines():
            event = json.loads(line)
            if event["cat"] == "net":
                spans[event["args"]["tag"]].append(
                    (event["args"]["ok"], event["dur"] / 1e6)
                )
        assert spans == {
            "whole": [(True, pytest.approx(64 * MB / network.bandwidth))],
            "loopback": [(True, 0.0)],
            "cut": [(False, pytest.approx(0.1))],
        }
