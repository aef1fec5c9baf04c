"""Harness end-to-end: clean scenarios pass, planted bugs are caught.

The sabotage self-tests are the proof the subsystem works: a DST
harness that cannot convict a deliberately broken system proves
nothing.  Each mode plants one class of bug behind the scenario's
back and asserts the matching oracle fires.
"""

import pathlib

import pytest

from repro.cluster import ClusterConfig
from repro.core.config import IgnemConfig
from repro.dst import (
    DstRunner,
    Scenario,
    ScenarioJob,
    apply_sabotage,
    build_cluster,
    run_oracles,
    run_scenario,
)
from repro.dst.harness import drain_scenario
from repro.storage import GB, MB

CORPUS = pathlib.Path(__file__).parent / "corpus"


def tiny_scenario():
    return Scenario(
        cluster=ClusterConfig(
            seed=11, num_nodes=2, replication=1, slots_per_node=2
        ),
        ignem=IgnemConfig(buffer_capacity=1 * GB),
        ha=False,
        implicit_eviction=True,
        jobs=(
            ScenarioJob(
                name="tiny-swim",
                kind="swim",
                input_path="/dst/tiny",
                input_bytes=128 * MB,
                arrival=0.0,
            ),
        ),
    )


class TestCleanRun:
    def test_tiny_scenario_passes_every_oracle(self):
        result = run_scenario(tiny_scenario())
        assert result.ok, result.format_violations()
        assert result.stats["jobs_completed"] == 1
        assert result.stats["jobs_failed"] == 0
        assert result.stats["migrations_completed"] >= 1
        # One report per oracle, all clean.
        assert all(report.ok for report in result.reports)

    def test_judged_cluster_runs_untraced(self):
        # The oracles judge the collector's records, never a trace.
        cluster, _ = build_cluster(tiny_scenario())
        assert cluster.obs.active is False

    def test_run_is_deterministic(self):
        first = run_scenario(tiny_scenario())
        second = run_scenario(tiny_scenario())
        assert first.stats == second.stats
        assert first.violations == second.violations


class TestBuildCluster:
    def test_scenario_configs_are_passed_through(self):
        scenario = Scenario.load(CORPUS / "mixed-serve.json")
        cluster, checker = build_cluster(scenario)
        assert cluster.config is scenario.cluster
        assert cluster._ignem_config is scenario.ignem
        assert all(
            slave.config is scenario.ignem
            for slave in cluster.ignem_slaves.values()
        )
        assert cluster.heat_migrator.config is scenario.serve.heat_config
        assert (checker.policy, checker.replicas_to_migrate) == (
            scenario.ignem.policy,
            scenario.ignem.replicas_to_migrate,
        )


class TestSabotage:
    @pytest.mark.parametrize(
        "mode", ["evict-to-admit", "fifo-queue", "overcommit-buffer"]
    )
    def test_config_sabotage_leaves_the_declaration_intact(self, mode):
        # The scenario's IgnemConfig is the oracles' declaration: the
        # sabotage must install a changed copy, never rewrite it, and a
        # node that joins later runs the sabotaged copy too.
        scenario = tiny_scenario()
        declared = scenario.ignem
        cluster, _ = build_cluster(scenario)
        apply_sabotage(cluster, mode)
        cluster.add_datanode()
        live = cluster._ignem_config
        assert scenario.ignem is declared
        assert scenario.ignem == IgnemConfig(buffer_capacity=1 * GB)
        assert live != declared
        slaves = cluster.ignem_slaves.values()
        assert len(slaves) == 3
        assert all(slave.config is live for slave in slaves)
        assert {slave.policy.name for slave in slaves} == {live.policy}

    def test_unknown_mode_rejected(self):
        cluster, _ = build_cluster(tiny_scenario())
        with pytest.raises(ValueError):
            apply_sabotage(cluster, "unplug-the-router")

    def test_evict_to_admit_convicted_by_do_not_harm_oracle(self):
        # The corpus scenario was shrunk under exactly this sabotage:
        # a full buffer plus a second job forces an evict-to-admit.
        scenario = Scenario.load(CORPUS / "buffer-pressure.json")
        context, _stats = drain_scenario(scenario, sabotage="evict-to-admit")
        preempted = [
            record
            for record in context.cluster.collector.evictions
            if record.reason == "preempted"
        ]
        assert preempted
        reports = {report.name: report for report in run_oracles(context)}
        # One message per preempted eviction: each fact is reported once.
        assert len(reports["do_not_harm"].violations) == len(preempted)

    def test_fifo_queue_convicted_by_differential_model(self):
        report = DstRunner(seed=0, sabotage="fifo-queue").fuzz(
            25, shrink=False
        )
        assert not report.ok
        failing = {
            name
            for result in report.failures
            for name, _ in result.violations
        }
        assert "differential" in failing

    def test_overcommit_buffer_convicted_by_buffer_cap_oracle(self):
        report = DstRunner(seed=0, sabotage="overcommit-buffer").fuzz(
            25, shrink=False
        )
        assert not report.ok
        failing = {
            name
            for result in report.failures
            for name, _ in result.violations
        }
        assert "buffer_cap" in failing

    def test_disable_repair_convicted_by_replication_oracles(self):
        # Elasticity draws guarantee permanent node losses appear in the
        # fuzzed fault plans; with the monitor off, those losses leave
        # blocks under-replicated forever.
        report = DstRunner(
            seed=0, sabotage="disable-repair", elasticity=True
        ).fuzz(25, shrink=False)
        assert not report.ok
        failing = {
            name
            for result in report.failures
            for name, _ in result.violations
        }
        assert "replication" in failing


class TestElasticFuzz:
    def test_elastic_sweep_with_repair_passes(self):
        report = DstRunner(seed=3, elasticity=True).fuzz(6, shrink=False)
        assert report.ok, report.format()
        assert report.scenarios_run == 6


class TestRunnerMetrics:
    def test_oracle_verdict_counters_feed_the_registry(self):
        runner = DstRunner(seed=0)
        report = runner.fuzz(3, shrink=False)
        assert report.ok
        registry = runner.registry
        assert registry.counter("dst.scenarios.run").value == 3
        assert registry.counter("dst.scenarios.failed").value == 0
        assert registry.counter("dst.oracle.differential.pass").value == 3
        assert registry.counter("dst.oracle.do_not_harm.pass").value == 3
        snapshot = registry.snapshot()
        assert any(
            key.startswith("dst.oracle.") for key in snapshot["counters"]
        )

    def test_failures_counted_under_sabotage(self):
        runner = DstRunner(seed=0, sabotage="fifo-queue")
        report = runner.fuzz(25, shrink=False)
        assert len(report.failures) == 1
        assert runner.registry.counter("dst.scenarios.failed").value == 1
        assert runner.registry.counter("dst.scenarios.run").value == (
            report.scenarios_run
        )


class TestArtifacts:
    def test_failure_artifact_round_trips(self, tmp_path):
        runner = DstRunner(seed=0, sabotage="fifo-queue")
        report = runner.fuzz(25, shrink=False)
        runner.write_artifact(report, tmp_path)
        assert report.artifact is not None
        saved = Scenario.load(report.artifact)
        assert saved.to_json() == report.failures[0].scenario.to_json()

    def test_no_artifact_written_on_a_clean_sweep(self, tmp_path):
        runner = DstRunner(seed=0)
        report = runner.fuzz(2, shrink=False)
        runner.write_artifact(report, tmp_path)
        assert report.artifact is None
        assert list(tmp_path.iterdir()) == []
