"""Regression corpus replay: every saved scenario must stay green.

``tests/dst/corpus/`` holds minimal scenarios that once exposed (or
deliberately exercise) interesting behavior.  ``python -m repro dst
--replay tests/dst/corpus`` runs the same check from the CLI; this file
is the pytest-native twin, so a plain test run covers the corpus too.
"""

import pathlib

from repro.dst import DstRunner, Scenario, corpus_paths, run_scenario

CORPUS = pathlib.Path(__file__).parent / "corpus"


def test_corpus_is_not_empty():
    assert len(corpus_paths(CORPUS)) >= 2


class TestKillDuringMigrationSeed:
    """PR 7 self-healing replication: a node is killed permanently
    while it holds the sole high-tier (migrated) replica of in-flight
    blocks, then a fresh node joins.  The monitor must re-replicate
    every lost replica — zero lost blocks, replication factor restored
    — and each interrupted migration either completes elsewhere or is
    cleanly abandoned (the ignem oracles judge that part)."""

    def test_kill_is_repaired_and_join_restores_replication(self):
        scenario = Scenario.load(CORPUS / "kill-during-migration.json")
        assert [e.kind for e in scenario.faults] == ["kill", "join"]
        result = run_scenario(scenario)
        assert result.ok, result.format_violations()
        assert result.stats["faults_applied"] == len(scenario.faults)
        assert result.stats["nodes_joined"] == 1
        # The kill lands mid-migration: not every started migration
        # completes, and every replica the dead node held is copied
        # back out (the replication oracle convicts any shortfall).
        assert result.stats["migrations_completed"] >= 1
        assert result.stats["repair_copies"] >= 1
        assert result.stats["jobs_completed"] == len(scenario.jobs)

    def test_replay_is_deterministic(self):
        scenario = Scenario.load(CORPUS / "kill-during-migration.json")
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.stats == second.stats
        assert first.violations == second.violations


def test_every_corpus_scenario_replays_clean():
    runner = DstRunner(seed=0)
    report = runner.replay(corpus_paths(CORPUS))
    assert report.scenarios_run == len(corpus_paths(CORPUS))
    assert report.ok, report.format()


def test_corpus_files_are_canonical():
    # Byte-identity keeps diffs reviewable: re-serializing a corpus
    # file must be a no-op.
    for path in corpus_paths(CORPUS):
        assert Scenario.load(path).to_json() == path.read_text(), path


class TestRetryFailoverSeed:
    """PR 2 command retry/backoff under concurrent slave crash and
    master failover, pinned as a hand-written corpus scenario."""

    def test_retries_reroutes_and_abandons_all_exercised(self):
        scenario = Scenario.load(CORPUS / "retry-failover.json")
        result = run_scenario(scenario)
        assert result.ok, result.format_violations()
        assert result.stats["command_retries"] >= 1
        assert result.stats["commands_rerouted"] >= 1
        assert result.stats["commands_abandoned"] >= 1
        assert result.stats["faults_applied"] == len(scenario.faults)

    def test_replay_is_deterministic(self):
        scenario = Scenario.load(CORPUS / "retry-failover.json")
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.stats == second.stats
        assert first.violations == second.violations


class TestThreeTierSeed:
    """PR 5 tier axis: the mem-ssd-hdd preset with migrations routed to
    the SSD tier, surviving a slave crash mid-run."""

    def test_three_tier_preset_survives_slave_crash(self):
        scenario = Scenario.load(CORPUS / "three-tier.json")
        assert scenario.cluster.tier_preset == "mem-ssd-hdd"
        assert scenario.ignem.migration_tier == "ssd"
        result = run_scenario(scenario)
        assert result.ok, result.format_violations()
        assert result.stats["faults_applied"] == len(scenario.faults)
        assert result.stats["migrations_completed"] >= 1
        assert result.stats["jobs_completed"] == len(scenario.jobs)

    def test_replay_is_deterministic(self):
        scenario = Scenario.load(CORPUS / "three-tier.json")
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.stats == second.stats
        assert first.violations == second.violations


class TestSwimElasticChurnSeed:
    """``repro chaos --elasticity`` seed 5 at 5 jobs: one SWIM run on
    the paper testbed that draws a kill, a join and a decommission on
    top of the classic faults, so the whole self-healing path runs
    under the full oracle suite."""

    def test_churn_is_repaired(self):
        scenario = Scenario.load(CORPUS / "swim-elastic-churn.json")
        kinds = {event.kind for event in scenario.faults}
        assert {"kill", "join", "decommission"} <= kinds
        result = run_scenario(scenario)
        assert result.ok, result.format_violations()
        assert result.stats["faults_applied"] == len(scenario.faults)
        assert result.stats["repair_copies"] >= 1
        assert result.stats["decommissions_completed"] == 1
        assert result.stats["nodes_joined"] == 1

    def test_replay_is_deterministic(self):
        scenario = Scenario.load(CORPUS / "swim-elastic-churn.json")
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.stats == second.stats
        assert first.violations == second.violations
