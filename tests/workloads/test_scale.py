"""Tests for the trace-scale replay harness (and its CLI entry point)."""

import json

import pytest

from repro.__main__ import main
from repro.workloads.scale import (
    ScaleConfig,
    format_scale_result,
    run_scale_replay,
)

#: Small enough to run in well under a second, large enough to engage
#: the scale fast paths (sampled placement, parked heartbeats, pooled
#: wakeups) and produce a meaningful event count.
SMALL = ScaleConfig(num_nodes=100, num_jobs=300)


@pytest.fixture(scope="module")
def small_result():
    return run_scale_replay(SMALL)


class TestReplay:
    def test_every_job_completes(self, small_result):
        assert small_result.jobs_completed == SMALL.num_jobs
        assert small_result.block_reads > 0
        assert small_result.sim_time > 0

    def test_migrations_feed_ram_reads(self, small_result):
        # The trace's queueing delays exceed migration time for ~81% of
        # jobs (paper Fig 3), so a healthy majority of reads must come
        # out of memory.
        assert small_result.migrations_completed > 0
        assert small_result.ram_block_reads > small_result.block_reads // 2
        assert (
            small_result.ram_block_reads + small_result.disk_block_reads
            == small_result.block_reads
        )

    def test_same_seed_is_bit_identical(self, small_result):
        replay = run_scale_replay(SMALL)
        assert replay.events == small_result.events
        assert replay.sim_time == small_result.sim_time
        assert replay.jobs_completed == small_result.jobs_completed
        assert replay.block_reads == small_result.block_reads
        assert replay.ram_block_reads == small_result.ram_block_reads
        assert replay.migrations_completed == small_result.migrations_completed
        assert replay.migrated_bytes == small_result.migrated_bytes
        assert replay.dataset_bytes == small_result.dataset_bytes

    def test_different_seed_diverges(self, small_result):
        other = run_scale_replay(
            ScaleConfig(num_nodes=100, num_jobs=300, seed=7)
        )
        assert other.events != small_result.events

    def test_plain_hdfs_baseline_never_migrates(self):
        result = run_scale_replay(
            ScaleConfig(num_nodes=50, num_jobs=100, ignem=False)
        )
        assert result.jobs_completed == 100
        assert result.migrations_completed == 0
        assert result.migrated_bytes == 0.0
        # Every block is read exactly once, always cold: no RAM hits.
        assert result.ram_block_reads == 0

    def test_block_cap_bounds_the_tail(self):
        capped = run_scale_replay(
            ScaleConfig(num_nodes=50, num_jobs=200, max_blocks_per_job=4)
        )
        block_size = 64 * 1024 * 1024
        assert capped.dataset_bytes <= 200 * 4 * block_size
        assert capped.capped_jobs > 0

    @pytest.mark.parametrize("max_blocks", [0, -1])
    def test_block_cap_below_one_is_rejected(self, max_blocks):
        # A cap of zero blocks would replay every job against an empty
        # input file and count every job as capped.
        with pytest.raises(ValueError, match="max_blocks_per_job"):
            ScaleConfig(max_blocks_per_job=max_blocks)

    def test_simulated_outputs_are_pinned(self):
        # The golden diff never reaches the scale-only paths (sampled
        # replica placement, the replay driver), so this pins their
        # simulated outputs.  ``events`` is left out: it counts kernel
        # scheduling operations, which a cheaper mechanism may change
        # without changing any simulated result.
        result = run_scale_replay(
            ScaleConfig(num_nodes=200, num_jobs=1000, seed=0)
        )
        assert result.sim_time == 1101.078978545432
        assert result.block_reads == 2876
        assert result.ram_block_reads == 2236
        assert result.migrations_completed == 2848
        assert result.migrated_bytes == 145556945651.56113

    def test_report_mentions_the_headline_numbers(self, small_result):
        report = format_scale_result(small_result)
        assert "100 nodes" in report
        assert f"{SMALL.num_jobs}/{SMALL.num_jobs} completed" in report
        assert "events" in report


class TestScaleCli:
    def test_scale_subcommand_writes_artifacts(self, tmp_path, capsys):
        code = main(
            [
                "scale",
                "--nodes",
                "50",
                "--jobs",
                "100",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "scale.json").read_text())
        assert payload["num_nodes"] == 50
        assert payload["jobs_completed"] == 100
        assert payload["events"] > 0
        report = (tmp_path / "scale.txt").read_text()
        assert "Trace-scale replay" in report
        assert "Trace-scale replay" in capsys.readouterr().out

    def test_scale_cli_matches_library_result(self, tmp_path):
        main(
            [
                "scale",
                "--nodes",
                "50",
                "--jobs",
                "100",
                "--seed",
                "3",
                "--out",
                str(tmp_path),
            ]
        )
        payload = json.loads((tmp_path / "scale.json").read_text())
        direct = run_scale_replay(
            ScaleConfig(num_nodes=50, num_jobs=100, seed=3)
        )
        assert payload["events"] == direct.events
        assert payload["sim_time"] == direct.sim_time
        assert payload["block_reads"] == direct.block_reads
