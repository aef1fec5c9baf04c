"""Mixed batch + interactive (serve) DST scenarios."""

import pathlib
from types import SimpleNamespace

import pytest

from repro.dst import (
    Scenario,
    ScenarioGenerator,
    ServeTraffic,
    run_scenario,
    serve_requests,
)
from repro.core.heat import HeatConfig
from repro.dfs.datanode import DataNodeError
from repro.dst import harness
from repro.dst.oracles import oracle_tenant_fairness
from repro.dst.shrinker import shrink_scenario
from repro.storage import MB

CORPUS = pathlib.Path(__file__).parent / "corpus"


class TestServeTraffic:
    def test_round_trip(self):
        traffic = ServeTraffic(num_requests=20, num_tenants=3, heat=True)
        assert ServeTraffic.from_dict(traffic.to_dict()) == traffic

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_requests": 0},
            {"num_requests": 10, "num_objects": 0},
            {"num_requests": 10, "object_bytes": 0.0},
            {"num_requests": 10, "num_tenants": 0},
            {"num_requests": 10, "zipf_s": 0.0},
            # HeatConfig checks tenant_tick_bytes; these are the
            # traffic's own fields, NaN-safe.
            {"num_requests": 10, "object_bytes": float("nan")},
            {"num_requests": 10, "zipf_s": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServeTraffic(**kwargs)


class TestInteractiveGenerator:
    def test_flag_off_reproduces_classic_scenarios(self):
        classic = ScenarioGenerator(11)
        gated = ScenarioGenerator(11, interactive=False)
        for index in range(5):
            assert (
                classic.generate(index).to_json()
                == gated.generate(index).to_json()
            )
            assert classic.generate(index).serve is None

    def test_interactive_draws_do_not_perturb_classic_fields(self):
        """Serve draws come strictly after every classic draw: the
        batch half of an interactive scenario is byte-identical to its
        classic twin."""
        classic = ScenarioGenerator(11)
        interactive = ScenarioGenerator(11, interactive=True)
        for index in range(5):
            a = classic.generate(index).to_dict()
            b = interactive.generate(index).to_dict()
            b.pop("serve", None)
            assert a == b

    def test_interactive_mixes_serve_and_batch_only(self):
        generator = ScenarioGenerator(0, interactive=True)
        scenarios = [generator.generate(index) for index in range(12)]
        with_serve = [s for s in scenarios if s.serve is not None]
        assert with_serve  # serve traffic appears...
        assert len(with_serve) < len(scenarios)  # ...but not always
        assert any(s.serve.heat for s in with_serve)

    def test_generation_is_deterministic(self):
        a = ScenarioGenerator(3, interactive=True).generate(4)
        b = ScenarioGenerator(3, interactive=True).generate(4)
        assert a.to_json() == b.to_json()


class TestServeRequests:
    def _scenario(self, **serve_kwargs):
        serve_kwargs.setdefault("num_requests", 25)
        base = ScenarioGenerator(5).generate(0)
        import dataclasses

        return dataclasses.replace(
            base, serve=ServeTraffic(**serve_kwargs)
        )

    def test_pure_function_of_scenario(self):
        scenario = self._scenario()
        assert serve_requests(scenario) == serve_requests(scenario)

    def test_fields_in_declared_ranges(self):
        scenario = self._scenario(num_tenants=2, num_objects=4)
        requests = serve_requests(scenario)
        assert len(requests) == 25
        for arrival, path, tenant, reader in requests:
            assert arrival > 0
            assert path.startswith("/dst/serve/obj-")
            assert tenant in {"tenant0", "tenant1"}
            assert reader in {
                f"node{i}" for i in range(scenario.cluster.num_nodes)
            }

    def test_batch_only_scenario_has_no_requests(self):
        assert serve_requests(ScenarioGenerator(5).generate(0)) == []


def _join_then_fail(error):
    """A ``join_all`` whose join fails with ``error`` once the reads end."""
    real_join_all = harness.join_all

    def join_all(env, events):
        failed = env.event()
        real_join_all(env, events).callbacks.append(
            lambda _join: failed.fail(error)
        )
        return failed

    return join_all


class TestMixedScenarioRuns:
    def test_mixed_serve_corpus_scenario_green(self):
        scenario = Scenario.load(CORPUS / "mixed-serve.json")
        assert scenario.serve is not None and scenario.serve.heat
        result = run_scenario(scenario)
        assert result.ok, result.format_violations()
        assert result.stats["serve_requests"] == scenario.serve.num_requests
        assert result.stats["serve_completed"] > 0
        assert result.stats["heat_ticks"] > 0

    @pytest.mark.parametrize(
        "name, completed, failed",
        [("mixed-serve.json", 39, 2), ("heat-crash-repromote.json", 31, 18)],
    )
    def test_every_request_counted_once(self, name, completed, failed):
        # Faults kill some reads; each request lands in exactly one of
        # the two counts.
        result = run_scenario(Scenario.load(CORPUS / name))
        stats = result.stats
        assert (stats["serve_completed"], stats["serve_failed"]) == (
            completed,
            failed,
        )
        assert stats["serve_requests"] == completed + failed

    def test_typed_read_failures_are_counted(self, monkeypatch):
        monkeypatch.setattr(
            harness, "join_all", _join_then_fail(DataNodeError("replica lost"))
        )
        result = run_scenario(Scenario.load(CORPUS / "mixed-serve.json"))
        assert result.stats["serve_completed"] == 0
        assert result.stats["serve_failed"] == result.stats["serve_requests"]

    def test_untyped_read_failure_aborts_the_run(self, monkeypatch):
        # Only the failures a fault may cause are counted; a bug in the
        # read path still stops the run.
        monkeypatch.setattr(
            harness, "join_all", _join_then_fail(RuntimeError("bug in the read path"))
        )
        with pytest.raises(RuntimeError, match="bug in the read path"):
            run_scenario(Scenario.load(CORPUS / "mixed-serve.json"))

    def test_mixed_replay_is_deterministic(self):
        scenario = Scenario.load(CORPUS / "mixed-serve.json")
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.stats == second.stats
        assert first.violations == second.violations


class TestTenantFairnessOracle:
    def _context(self, serve, log):
        migrator = SimpleNamespace(fairness_log=log)
        scenario = SimpleNamespace(serve=serve)
        cluster = SimpleNamespace(heat_migrator=migrator)
        return SimpleNamespace(scenario=scenario, cluster=cluster)

    def test_silent_without_serve_traffic(self):
        ctx = self._context(None, [])
        assert oracle_tenant_fairness(ctx) == []

    def test_under_cap_passes(self):
        serve = ServeTraffic(
            num_requests=10,
            heat_config=HeatConfig(tenant_tick_bytes=100 * MB),
        )
        log = [{"tick": 1, "time": 5.0, "granted": {"t0": 90 * MB}}]
        assert oracle_tenant_fairness(self._context(serve, log)) == []

    def test_over_cap_convicted(self):
        serve = ServeTraffic(
            num_requests=10,
            heat_config=HeatConfig(tenant_tick_bytes=100 * MB),
        )
        log = [
            {"tick": 1, "time": 5.0, "granted": {"t0": 90 * MB}},
            {"tick": 2, "time": 7.0, "granted": {"t1": 160 * MB}},
        ]
        violations = oracle_tenant_fairness(self._context(serve, log))
        assert len(violations) == 1
        assert "t1" in violations[0]


class TestShrinkerDropsServe:
    def test_serve_independent_failure_sheds_traffic(self):
        scenario = Scenario.load(CORPUS / "mixed-serve.json")

        def still_fails(candidate):
            return True  # failure independent of everything

        shrunk, _attempts = shrink_scenario(scenario, still_fails)
        assert shrunk.serve is None
        assert len(shrunk.jobs) == 1
