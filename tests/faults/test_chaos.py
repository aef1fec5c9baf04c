"""`repro chaos` sweeps: SWIM scenarios judged by the DST harness."""

import dataclasses

from repro.__main__ import main
from repro.dst import DstRunner, Scenario, run_scenario, swim_scenario


def sweep(runner, seeds, base_seed, num_jobs, elasticity=False):
    return runner.fuzz(
        seeds,
        generate=lambda index: swim_scenario(
            base_seed + index, num_jobs, elasticity
        ),
    )


class TestChaosRuns:
    def test_single_seed_upholds_invariants(self):
        result = run_scenario(swim_scenario(0, 5))
        assert result.violations == []
        assert result.stats["jobs_total"] == 5
        assert result.stats["jobs_completed"] == 5
        assert result.stats["sim_time"] > 0
        assert result.ok

    def test_same_seed_is_deterministic(self):
        first = run_scenario(swim_scenario(4, 5))
        second = run_scenario(swim_scenario(4, 5))
        assert first.stats == second.stats
        assert first.violations == second.violations

    def test_sweep_report(self):
        report = sweep(DstRunner(seed=5), seeds=2, base_seed=5, num_jobs=4)
        assert [r.scenario.cluster.seed for r in report.results] == [5, 6]
        assert report.ok
        text = report.format()
        assert "PASS" in text
        assert "seed=5" in text and "seed=6" in text

    def test_runs_without_ha_pair(self):
        scenario = dataclasses.replace(swim_scenario(1, 4), ha=False)
        result = run_scenario(scenario)
        assert result.violations == []

    def test_cli_alias_sweeps_seeds_from_seed(self, tmp_path, capsys):
        code = main(
            ["chaos", "--seeds", "2", "--num-jobs", "3", "--seed", "3",
             "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "seed=3" in out and "seed=4" in out
        assert "verdict: PASS" in out
        assert list(tmp_path.iterdir()) == []


class TestElasticitySweeps:
    def test_elasticity_is_deterministic(self):
        first = run_scenario(swim_scenario(2, 5, elasticity=True))
        second = run_scenario(swim_scenario(2, 5, elasticity=True))
        assert first.stats == second.stats
        assert first.violations == second.violations

    def test_flag_off_keeps_the_classic_sweep_identical(self):
        classic = swim_scenario(3, 4)
        flagged = swim_scenario(3, 4, elasticity=False)
        assert classic.to_json() == flagged.to_json()
        assert not {"kill", "join", "decommission"} & {
            event.kind for event in classic.faults
        }

    def test_failing_seed_leaves_a_shrunk_reproducer(self, tmp_path):
        # Seed 4 draws a permanent kill; with repair sabotaged, the
        # replication oracles convict it, and the shrunk scenario is
        # written where CI uploads it from.
        runner = DstRunner(seed=4, sabotage="disable-repair")
        report = sweep(runner, seeds=1, base_seed=4, num_jobs=3,
                       elasticity=True)
        assert not report.ok
        runner.write_artifact(report, tmp_path)
        [artifact] = tmp_path.glob("dst-failure-seed*.json")
        reproducer = Scenario.load(artifact)
        assert "kill" in {event.kind for event in reproducer.faults}
        assert not run_scenario(reproducer, sabotage="disable-repair").ok
