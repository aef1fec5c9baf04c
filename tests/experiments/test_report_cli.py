"""Tests for the batch report runner and the CLI."""

import json

import pytest

from repro.__main__ import build_parser, main
from repro.experiments import clear_cache
from repro.experiments.report import available_experiments, run_experiments


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestReportRunner:
    def test_available_experiments_cover_all_tables_and_figures(self):
        names = available_experiments()
        for expected in (
            "fig1",
            "fig2",
            "fig3",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "table1",
            "table2",
            "table3",
            "ablation-priority",
            "ablation-do-not-harm",
            "ablation-implicit-eviction",
            "ablation-migration-concurrency",
            "ablation-replica-choice",
            "ablation-reverse-order",
            "extension-benefit-aware",
            "extension-busy-throttle",
            "extension-cluster-utilization",
            "extension-speculation",
        ):
            assert expected in names

    def test_run_writes_txt_json_and_series(self, tmp_path):
        results = run_experiments(["fig3"], out_dir=tmp_path)
        assert "fig3" in results
        assert (tmp_path / "fig3.txt").exists()
        payload = json.loads((tmp_path / "fig3.json").read_text())
        assert payload["sufficient_fraction"] == pytest.approx(0.81, abs=0.03)
        series = (tmp_path / "fig3_series.csv").read_text().splitlines()
        assert series[0] == "read_over_lead_ratio,cdf"
        assert len(series) > 10

    def test_subset_run_writes_no_claims(self, tmp_path):
        run_experiments(["extension-speculation"], out_dir=tmp_path)
        payload = json.loads((tmp_path / "extension_speculation.json").read_text())
        assert set(payload) == {"hdfs", "hdfs+spec", "ignem", "ignem+spec"}
        assert not (tmp_path / "claims.json").exists()

    def test_unknown_experiment_raises(self, tmp_path):
        with pytest.raises(KeyError):
            run_experiments(["fig99"], out_dir=tmp_path)

    def test_fig1_fig2_share_one_run(self, tmp_path):
        results = run_experiments(["fig1", "fig2"], out_dir=tmp_path)
        # The shared runner executes once and reports under the first name.
        assert list(results) == ["fig1"]
        assert (tmp_path / "fig1_fig2.txt").exists()
        assert (tmp_path / "fig2_series.csv").exists()


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out
        assert "fig8" in out

    def test_run_command_writes_results(self, tmp_path, capsys):
        code = main(["run", "fig3", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fig 3" in out
        assert (tmp_path / "fig3.json").exists()

    def test_run_unknown_experiment_fails_cleanly(self, tmp_path, capsys):
        code = main(["run", "fig99", "--out", str(tmp_path)])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_parser_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_shared_parent_parser_covers_out_and_seed(self):
        parser = build_parser()
        for argv in (
            ["run", "fig3", "--out", "o", "--seed", "7"],
            ["all", "--out", "o", "--seed", "7"],
            ["trace", "swim-ignem", "--out", "o", "--seed", "7"],
            ["chaos", "--out", "o", "--seed", "7"],
        ):
            args = parser.parse_args(argv)
            assert args.out == "o"
            assert args.seed == 7

    def test_trace_command_writes_validated_trace(self, tmp_path, capsys):
        code = main(
            [
                "trace",
                "swim-ignem",
                "--out",
                str(tmp_path),
                "--num-jobs",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ok" in out
        trace = tmp_path / "swim-ignem_ignem.trace.jsonl"
        assert trace.exists()
        assert (tmp_path / "swim-ignem_ignem.metrics.json").exists()
        from repro.obs import validate_trace

        assert validate_trace(trace) == []

    def test_trace_unknown_experiment_fails_cleanly(self, tmp_path, capsys):
        code = main(["trace", "fig99", "--out", str(tmp_path)])
        assert code == 2
        assert "not traceable" in capsys.readouterr().err

    def test_trace_sim_events_adds_kernel_category(self, tmp_path, capsys):
        from repro.obs import TraceReader

        def categories(out, *flags):
            argv = ["trace", "swim-ignem", "--out", str(out), "--num-jobs", "2"]
            assert main(argv + list(flags)) == 0
            trace = out / "swim-ignem_ignem.trace.jsonl"
            return {event.get("cat") for event in TraceReader.load(trace).events}

        assert "sim" not in categories(tmp_path / "plain")
        assert "sim" in categories(tmp_path / "sim", "--sim-events")
