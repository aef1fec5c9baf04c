"""Scenario objects: validation, canonical serialization, generation."""

import dataclasses
import hashlib
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig
from repro.core.config import IgnemConfig
from repro.dst import (
    Scenario,
    ScenarioGenerator,
    ScenarioJob,
    ServeTraffic,
    swim_scenario,
)
from repro.dst.scenario import DST_HEAT
from repro.faults import FaultEvent, FaultSchedule
from repro.faults.schedule import FAULT_KINDS
from repro.mapreduce.spec import EngineConfig
from repro.storage import GB, MB
from repro.workloads.swim import SwimGenerator
from tests.strategies import fault_events

CORPUS = pathlib.Path(__file__).parent / "corpus"


def tiny_scenario(**overrides):
    fields = dict(
        cluster=ClusterConfig(
            seed=1, num_nodes=2, replication=1, slots_per_node=2
        ),
        ignem=IgnemConfig(buffer_capacity=1 * GB),
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
            tiny_scenario(
                cluster=ClusterConfig(num_nodes=2, replication=3)
            )

    def test_num_nodes_positive(self):
        # ClusterConfig makes this check; the scenario holds that config.
        with pytest.raises(ValueError):
            tiny_scenario(cluster=ClusterConfig(num_nodes=0))

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
        assert Scenario.from_dict(data).ignem.do_not_harm is True

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
            cluster, ignem = scenario.cluster, scenario.ignem
            assert 2 <= cluster.num_nodes <= 6
            assert 1 <= cluster.replication <= min(3, cluster.num_nodes)
            assert 128 * MB <= ignem.buffer_capacity <= 4 * GB
            assert ignem.policy in ("smallest-job-first", "fifo")
            assert scenario.jobs
            names = {f"node{i}" for i in range(cluster.num_nodes)}
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
            scenario.cluster.num_nodes,
            scenario.cluster.slots_per_node,
            scenario.cluster.block_size,
            scenario.cluster.replication,
            scenario.ignem.buffer_capacity,
            scenario.ignem.policy,
            scenario.ha,
            scenario.implicit_eviction,
        ) == (8, 8, 64 * MB, 3, 16 * GB, "smallest-job-first", True, True)
        assert {job.kind for job in scenario.jobs} == {"swim"}


class TestHeldConfigs:
    """A scenario holds the shipped configs; JSON keeps today's flat keys
    and drops no field silently."""

    def test_non_default_field_without_a_key_round_trips(self):
        scenario = tiny_scenario(
            cluster=ClusterConfig(
                num_nodes=2, replication=1, disk_capacity=2 * GB
            ),
            ignem=IgnemConfig(replicas_to_migrate=2, busy_threshold=3),
            serve=ServeTraffic(
                num_requests=5,
                heat_config=dataclasses.replace(DST_HEAT, half_life=7.0),
            ),
        )
        data = scenario.to_dict()
        assert data["disk_capacity"] == 2 * GB
        assert data["replicas_to_migrate"] == 2
        assert data["busy_threshold"] == 3
        assert data["serve"]["half_life"] == 7.0
        assert Scenario.from_json(scenario.to_json()) == scenario

    @pytest.mark.parametrize("section", [None, "serve"])
    def test_misspelt_key_rejected(self, section):
        # Read back as a default, a misspelt field would silently run
        # (and judge) a different scenario.
        data = json.loads((CORPUS / "mixed-serve.json").read_text())
        target = data if section is None else data[section]
        key = "buffer_capacity" if section is None else "tenant_tick_bytes"
        target[key + "_typo"] = target.pop(key)
        with pytest.raises(TypeError):
            Scenario.from_dict(data)

    def test_default_fields_without_a_key_are_not_written(self):
        data = tiny_scenario().to_dict()
        assert "disk_capacity" not in data
        assert "migration_concurrency" not in data
        assert "tier_preset" not in data
        assert "migration_tier" not in data

    @pytest.mark.parametrize(
        "overrides",
        [
            {
                "cluster": ClusterConfig(
                    num_nodes=2,
                    replication=1,
                    engine=EngineConfig(output_replication=2),
                )
            },
            {"ignem": IgnemConfig(tier_buffer_capacities=(("mem", 1 * GB),))},
        ],
    )
    def test_field_json_cannot_carry_raises(self, overrides):
        with pytest.raises(ValueError, match="no scenario JSON form"):
            tiny_scenario(**overrides).to_json()


class TestNanRejected:
    """``json.loads`` accepts ``NaN``; a replayed file with one in any
    numeric field must be refused, not run."""

    @pytest.mark.parametrize(
        "path",
        [
            ("jobs", 0, "input_bytes"),
            ("jobs", 0, "arrival"),
            ("faults", 0, "time"),
            ("serve", "object_bytes"),
            ("serve", "zipf_s"),
            ("serve", "tenant_tick_bytes"),
            ("buffer_capacity",),
            ("block_size",),
        ],
    )
    def test_nan_field_rejected_on_load(self, tmp_path, path):
        data = json.loads((CORPUS / "mixed-serve.json").read_text())
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = float("nan")
        target = tmp_path / "nan.json"
        target.write_text(json.dumps(data))
        assert "NaN" in target.read_text()
        with pytest.raises(ValueError):
            Scenario.load(target)


def _digest(texts):
    return hashlib.sha256("".join(texts).encode()).hexdigest()[:16]


class TestDrawStreamPinned:
    """The generators' draw streams, pinned across commits.

    The other generator tests compare a generator with itself; these
    digests change whenever a draw is added, removed or reordered, so a
    new draw must come after every existing one (or the corpus and
    every reported fuzz seed silently change meaning)."""

    @pytest.mark.parametrize(
        "flags, digest",
        [
            ({}, "a52781288d3640af"),
            ({"elasticity": True}, "a89a88f48479081a"),
            ({"interactive": True}, "4da27f2669ae7a7c"),
        ],
    )
    def test_generator_stream(self, flags, digest):
        generator = ScenarioGenerator(seed=0, **flags)
        texts = (generator.generate(i).to_json() for i in range(25))
        assert _digest(texts) == digest

    def test_swim_stream(self):
        texts = (swim_scenario(seed, 40).to_json() for seed in range(10))
        assert _digest(texts) == "f9ae957489d38d81"
