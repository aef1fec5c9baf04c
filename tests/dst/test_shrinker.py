"""Shrinker: greedy minimization is minimal, deterministic, budgeted.

These tests use pure predicates over the scenario structure — no
simulation — so they pin the shrinking algebra itself.
"""

from repro.cluster import ClusterConfig
from repro.core.config import IgnemConfig
from repro.dst import Scenario, ScenarioJob, shrink_scenario
from repro.dst.shrinker import (
    MAX_ATTEMPTS,
    _candidates,
    _with_fewer_nodes,
    describe_shrink,
)
from repro.faults import FaultEvent
from repro.storage import GB, MB


def job(name, arrival):
    return ScenarioJob(
        name=name,
        kind="swim",
        input_path=f"/dst/{name}",
        input_bytes=64 * MB,
        arrival=arrival,
    )


def big_scenario(replication=2, **overrides):
    fields = dict(
        cluster=ClusterConfig(
            seed=9, num_nodes=4, replication=replication, slots_per_node=2
        ),
        ignem=IgnemConfig(buffer_capacity=1 * GB),
        ha=True,
        implicit_eviction=True,
        jobs=(
            job("keep", 0.0),
            job("j1", 1.0),
            job("j2", 2.0),
            job("j3", 3.0),
        ),
        faults=(
            FaultEvent(1.0, "crash", "node0"),
            FaultEvent(2.0, "slow_disk_start", "node1", 0.5),
            FaultEvent(3.0, "restart", "node0"),
        ),
    )
    fields.update(overrides)
    return Scenario(**fields)


def needs_keep_and_crash(scenario):
    return any(j.name == "keep" for j in scenario.jobs) and any(
        f.kind == "crash" for f in scenario.faults
    )


class TestShrinking:
    def test_reaches_the_minimal_failing_scenario(self):
        shrunk, attempts = shrink_scenario(
            big_scenario(), needs_keep_and_crash
        )
        assert [j.name for j in shrunk.jobs] == ["keep"]
        assert [f.kind for f in shrunk.faults] == ["crash"]
        assert shrunk.cluster.num_nodes == 2
        assert shrunk.ha is False
        assert 0 < attempts <= MAX_ATTEMPTS

    def test_result_is_one_minimal(self):
        shrunk, _ = shrink_scenario(big_scenario(), needs_keep_and_crash)
        # No single further shrink step still fails: a fixed point.
        assert all(
            not needs_keep_and_crash(candidate)
            for candidate in _candidates(shrunk)
        )

    def test_shrinking_is_deterministic(self):
        first, n1 = shrink_scenario(big_scenario(), needs_keep_and_crash)
        second, n2 = shrink_scenario(big_scenario(), needs_keep_and_crash)
        assert first.to_json() == second.to_json()
        assert n1 == n2

    def test_replication_clamped_when_nodes_shrink(self):
        scenario = big_scenario(replication=4, faults=())
        shrunk, _ = shrink_scenario(
            scenario, lambda s: any(j.name == "keep" for j in s.jobs)
        )
        assert shrunk.cluster.num_nodes == 2
        assert shrunk.cluster.replication <= shrunk.cluster.num_nodes

    def test_faults_on_removed_nodes_are_dropped_with_them(self):
        scenario = big_scenario(
            faults=(
                FaultEvent(1.0, "crash", "node0"),
                FaultEvent(2.0, "crash", "node3"),
            )
        )
        candidate = _with_fewer_nodes(scenario)
        # node3 left the cluster, so its crash goes with it; node0's stays.
        assert candidate.cluster.num_nodes == 3
        assert [f.target for f in candidate.faults] == ["node0"]

    def test_crashing_candidates_count_as_not_failing(self):
        def fails_unless_candidate_breaks(scenario):
            if not scenario.ha:
                raise RuntimeError("harness blew up on this candidate")
            return True

        shrunk, _ = shrink_scenario(
            big_scenario(), fails_unless_candidate_breaks
        )
        # Everything else shrinks away, but the exploding no-HA
        # candidate is treated as not-reproducing, so HA survives.
        assert shrunk.ha is True
        assert len(shrunk.jobs) == 1
        assert shrunk.faults == ()

    def test_attempt_budget_is_respected(self):
        _, attempts = shrink_scenario(
            big_scenario(), lambda s: True, max_attempts=3
        )
        assert attempts == 3


class TestDescribe:
    def test_no_change_is_already_minimal(self):
        scenario = big_scenario()
        assert describe_shrink(scenario, scenario) == "already minimal"

    def test_reports_every_shrunk_axis(self):
        original = big_scenario()
        shrunk, _ = shrink_scenario(original, needs_keep_and_crash)
        note = describe_shrink(original, shrunk)
        assert "jobs 4->1" in note
        assert "faults 3->1" in note
        assert "nodes 4->2" in note
        assert "ha dropped" in note
