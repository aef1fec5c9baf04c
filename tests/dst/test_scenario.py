"""Scenario objects: validation, canonical serialization, generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dst import Scenario, ScenarioGenerator, ScenarioJob, swim_scenario
from repro.faults import FaultEvent, FaultSchedule
from repro.faults.schedule import FAULT_KINDS
from repro.storage import GB, MB
from repro.workloads.swim import SwimGenerator
from tests.strategies import fault_events


def tiny_scenario(**overrides):
    fields = dict(
        seed=1,
        num_nodes=2,
        replication=1,
        slots_per_node=2,
        block_size=64 * MB,
        buffer_capacity=1 * GB,
        policy="smallest-job-first",
        ha=False,
        implicit_eviction=True,
        jobs=(
            ScenarioJob(
                name="j0",
                kind="swim",
                input_path="/dst/in",
                input_bytes=64 * MB,
                arrival=0.0,
            ),
        ),
    )
    fields.update(overrides)
    return Scenario(**fields)


class TestValidation:
    def test_needs_at_least_one_job(self):
        with pytest.raises(ValueError):
            tiny_scenario(jobs=())

    def test_replication_bounded_by_nodes(self):
        with pytest.raises(ValueError):
            tiny_scenario(replication=3)

    def test_num_nodes_positive(self):
        with pytest.raises(ValueError):
            tiny_scenario(num_nodes=0)

    def test_job_kind_checked(self):
        with pytest.raises(ValueError):
            ScenarioJob(
                name="j",
                kind="terasort",
                input_path="/p",
                input_bytes=1.0,
                arrival=0.0,
            )

    def test_job_arrival_non_negative(self):
        with pytest.raises(ValueError):
            ScenarioJob(
                name="j",
                kind="swim",
                input_path="/p",
                input_bytes=1.0,
                arrival=-1.0,
            )

    def test_faults_are_normalized_sorted(self):
        scenario = tiny_scenario(
            faults=(
                FaultEvent(5.0, "restart", "node0"),
                FaultEvent(1.0, "crash", "node0"),
            )
        )
        assert [e.time for e in scenario.faults] == [1.0, 5.0]


class TestSerialization:
    def test_json_round_trip_is_byte_identical(self):
        scenario = tiny_scenario(
            faults=(FaultEvent(1.0, "crash", "node0"),), ha=False
        )
        text = scenario.to_json()
        assert Scenario.from_json(text).to_json() == text

    def test_save_load_round_trip(self, tmp_path):
        scenario = tiny_scenario()
        path = scenario.save(tmp_path / "s.json")
        loaded = Scenario.load(path)
        assert loaded == scenario
        assert loaded.to_json() == path.read_text()

    def test_unknown_format_version_rejected(self):
        data = tiny_scenario().to_dict()
        data["format_version"] = 99
        with pytest.raises(ValueError):
            Scenario.from_dict(data)

    def test_do_not_harm_defaults_true(self):
        data = tiny_scenario().to_dict()
        del data["do_not_harm"]
        assert Scenario.from_dict(data).do_not_harm is True

    def test_shared_input_files_keep_largest_size(self):
        job = tiny_scenario().jobs[0]
        bigger = ScenarioJob(
            name="j1",
            kind="wordcount",
            input_path=job.input_path,
            input_bytes=job.input_bytes * 2,
            arrival=1.0,
        )
        scenario = tiny_scenario(jobs=(job, bigger))
        assert scenario.input_files() == {
            job.input_path: bigger.input_bytes
        }


class TestGenerator:
    def test_same_seed_and_index_is_byte_identical(self):
        first = ScenarioGenerator(seed=7).generate(3)
        second = ScenarioGenerator(seed=7).generate(3)
        assert first.to_json() == second.to_json()

    def test_different_indices_differ(self):
        generator = ScenarioGenerator(seed=7)
        assert generator.generate(0).to_json() != generator.generate(1).to_json()

    def test_generation_is_index_independent(self):
        # Scenario i is a pure function of (seed, i): generating 0 first
        # must not perturb 5.
        alone = ScenarioGenerator(seed=3).generate(5)
        generator = ScenarioGenerator(seed=3)
        for index in range(5):
            generator.generate(index)
        assert generator.generate(5).to_json() == alone.to_json()

    def test_sampled_scenarios_are_well_formed(self):
        generator = ScenarioGenerator(seed=0)
        for index in range(20):
            scenario = generator.generate(index)
            assert 2 <= scenario.num_nodes <= 6
            assert 1 <= scenario.replication <= min(3, scenario.num_nodes)
            assert 128 * MB <= scenario.buffer_capacity <= 4 * GB
            assert scenario.policy in ("smallest-job-first", "fifo")
            assert scenario.jobs
            names = {f"node{i}" for i in range(scenario.num_nodes)}
            for event in scenario.faults:
                assert event.kind in FAULT_KINDS
                assert event.target is None or event.target in names
            # The canonical form survives a round trip.
            assert (
                Scenario.from_json(scenario.to_json()).to_json()
                == scenario.to_json()
            )

    @given(st.lists(fault_events(num_nodes=2), max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_any_fault_plan_round_trips_canonically(self, faults):
        scenario = tiny_scenario(faults=tuple(faults))
        text = scenario.to_json()
        assert Scenario.from_json(text).to_json() == text

    def test_mix_includes_clean_and_faulty_runs(self):
        generator = ScenarioGenerator(seed=0)
        fault_counts = [len(generator.generate(i).faults) for i in range(20)]
        assert any(n == 0 for n in fault_counts)
        assert any(n > 0 for n in fault_counts)


class TestGeneratorElasticity:
    def test_flag_off_is_byte_identical_to_the_old_generator(self):
        # The corpus (and every historical fuzz seed) must stay canonical
        # with elasticity left at its default.
        for index in range(10):
            old = ScenarioGenerator(seed=4).generate(index)
            flagged = ScenarioGenerator(seed=4, elasticity=False).generate(
                index
            )
            assert old.to_json() == flagged.to_json()

    def test_flag_on_only_appends_membership_faults(self):
        elastic_kinds = ("kill", "join", "decommission")
        saw_elastic = False
        for index in range(20):
            classic = ScenarioGenerator(seed=4).generate(index)
            elastic = ScenarioGenerator(seed=4, elasticity=True).generate(
                index
            )
            kept = tuple(
                e for e in elastic.faults if e.kind not in elastic_kinds
            )
            assert kept == classic.faults
            saw_elastic = saw_elastic or len(elastic.faults) > len(
                classic.faults
            )
        assert saw_elastic

    def test_elastic_scenarios_are_deterministic(self):
        first = ScenarioGenerator(seed=9, elasticity=True).generate(2)
        second = ScenarioGenerator(seed=9, elasticity=True).generate(2)
        assert first.to_json() == second.to_json()


class TestSwimScenario:
    """``swim_scenario`` is ``repro chaos``'s seed family: the SWIM
    workload and fault plan the deleted chaos runner drew, unchanged."""

    @pytest.mark.parametrize("elasticity", [False, True])
    def test_faults_match_the_chaos_draw(self, elasticity):
        for seed in range(10):
            arrivals = [
                job.arrival_time
                for job in SwimGenerator(seed).generate(num_jobs=40)
            ]
            expected = FaultSchedule.random(
                seed,
                [f"node{i}" for i in range(8)],
                max(arrivals) + 120.0,
                max_node_crashes=2,
                elasticity=elasticity,
            ).events
            scenario = swim_scenario(seed, 40, elasticity=elasticity)
            assert scenario.faults == expected, seed

    def test_jobs_are_the_swim_trace(self):
        for seed in range(10):
            trace = SwimGenerator(seed).generate(num_jobs=40)
            jobs = swim_scenario(seed, 40).jobs
            assert [
                (j.name, j.input_path, j.input_bytes, j.arrival)
                for j in jobs
            ] == [
                (t.name, t.input_path, t.input_bytes, t.arrival_time)
                for t in trace
            ]
            assert [(j.shuffle_bytes, j.output_bytes) for j in jobs] == [
                (t.shuffle_bytes, t.output_bytes) for t in trace
            ]

    def test_paper_testbed_shape(self):
        scenario = swim_scenario(0, 3)
        assert (
            scenario.num_nodes,
            scenario.slots_per_node,
            scenario.block_size,
            scenario.replication,
            scenario.buffer_capacity,
            scenario.policy,
            scenario.ha,
            scenario.implicit_eviction,
        ) == (8, 8, 64 * MB, 3, 16 * GB, "smallest-job-first", True, True)
        assert {job.kind for job in scenario.jobs} == {"swim"}
