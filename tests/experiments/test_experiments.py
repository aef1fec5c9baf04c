"""Tests for the experiment runners (small-scale smoke + shape checks)."""

import pytest

from repro.experiments import (
    ablation_priority,
    clear_cache,
    fig5_size_bins,
    fig6_block_read_cdf,
    fig7_memory_footprint,
    fig8_wordcount_sweep,
    fig9_hive_study,
    make_comparison,
    run_block_read_study,
    run_leadtime_study,
    run_query_once,
    run_sort_once,
    run_swim,
    run_utilization_study,
    run_wordcount_point,
    table1_job_duration,
    table2_task_duration,
)
from repro.experiments.common import MODES
from repro.hive import TPCDS_QUERIES, get_query, query_input_bytes
from repro.storage import GB


@pytest.fixture(autouse=True, scope="module")
def _fresh_cache():
    clear_cache()
    yield
    clear_cache()


class TestComparisonTable:
    def test_speedups_computed_against_hdfs(self):
        table = make_comparison(
            "t", "s", {"hdfs": 10.0, "ignem": 8.0, "ram": 5.0}
        )
        assert table.speedup("hdfs") == 0.0
        assert table.speedup("ignem") == pytest.approx(0.2)
        assert table.speedup("ram") == pytest.approx(0.5)
        assert table.fraction_of_upper_bound() == pytest.approx(0.4)

    def test_format_contains_paper_column(self):
        table = make_comparison(
            "Title", "s", {"hdfs": 10.0, "ignem": 8.0, "ram": 5.0},
            paper_values={"hdfs": 14.4},
        )
        text = table.format()
        assert "Title" in text
        assert "Paper" in text
        assert "14.40" in text

    def test_unknown_mode_raises(self):
        table = make_comparison("t", "s", {"hdfs": 10.0, "ignem": 8.0})
        with pytest.raises(KeyError):
            table.value("ssd")


class TestSwimExperimentsSmall:
    """Small SWIM runs (40 jobs) exercising every runner quickly."""

    NUM_JOBS = 40

    def test_run_swim_caches(self):
        first = run_swim("hdfs", seed=0, num_jobs=self.NUM_JOBS)
        second = run_swim("hdfs", seed=0, num_jobs=self.NUM_JOBS)
        assert first is second

    def test_run_swim_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            run_swim("gpu", num_jobs=self.NUM_JOBS)

    def test_table1_ordering(self):
        table = table1_job_duration(seed=0, num_jobs=self.NUM_JOBS)
        assert table.value("hdfs") >= table.value("ignem") >= table.value("ram")

    def test_table2_ordering(self):
        table = table2_task_duration(seed=0, num_jobs=self.NUM_JOBS)
        assert table.value("hdfs") > table.value("ignem") > table.value("ram")

    def test_fig5_bins_have_jobs(self):
        bins = fig5_size_bins(seed=0, num_jobs=self.NUM_JOBS)
        assert bins
        assert sum(b.num_jobs for b in bins) == self.NUM_JOBS

    def test_fig6_fractions_valid(self):
        result = fig6_block_read_cdf(seed=0, num_jobs=self.NUM_JOBS)
        assert 0 <= result.migrated_fraction <= 1
        assert len(result.hdfs_durations) == len(result.ignem_durations)

    def test_fig7_footprints_positive(self):
        result = fig7_memory_footprint(seed=0, num_jobs=self.NUM_JOBS)
        assert result.ignem_mean_bytes > 0
        assert result.hypothetical_mean_bytes > 0

    def test_ablation_priority_runs(self):
        result = ablation_priority(seed=0, num_jobs=self.NUM_JOBS)
        assert result.hdfs_mean > 0
        assert result.priority_mean > 0
        assert result.fifo_mean > 0


class TestStandaloneExperiments:
    def test_sort_modes_ordered(self):
        durations = {
            mode: run_sort_once(mode, seed=0, input_bytes=4 * GB).jobs[0].duration
            for mode in MODES
        }
        assert durations["hdfs"] > durations["ram"]
        assert durations["ignem"] < durations["hdfs"]

    def test_sort_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            run_sort_once("tape", input_bytes=1 * GB)

    def test_wordcount_point_variants(self):
        hdfs = run_wordcount_point("hdfs", 1, seed=0)
        ignem = run_wordcount_point("ignem", 1, seed=0)
        plus10 = run_wordcount_point("ignem+10s", 1, seed=0)
        assert ignem < hdfs
        assert plus10 > ignem  # the sleep dominates at 1GB

    def test_wordcount_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            run_wordcount_point("ignem+99s", 1)

    def test_fig8_sweep_small(self):
        sweep = fig8_wordcount_sweep(seed=0, sizes_gb=(1, 2))
        assert sweep.sizes() == [1.0, 2.0]
        assert sweep.relative(1.0, "hdfs") == 1.0
        with pytest.raises(KeyError):
            sweep.duration(99, "hdfs")


class TestHiveExperiment:
    def test_single_query_modes(self):
        query = get_query("q3")
        hdfs, map_frac = run_query_once(query, "hdfs", seed=0)
        ignem, _ = run_query_once(query, "ignem", seed=0)
        assert ignem < hdfs
        assert 0.5 <= map_frac <= 1.0

    def test_study_subset(self):
        study = fig9_hive_study(
            seed=0,
            queries=[get_query("q3"), get_query("q12")],
            modes=("hdfs", "ignem"),
        )
        assert len(study.queries) == 2
        assert study.mean_ignem_speedup() > 0
        assert study.by_input_size()[0].query_id == "q3"

    def test_run_query_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            run_query_once(get_query("q3"), "floppy")

    def test_catalog_inputs_span_small_to_large(self):
        # Fig 9b: q3 reads the least, q29 the most, over 5x more.
        ordered = sorted(TPCDS_QUERIES, key=query_input_bytes)
        assert ordered[0].query_id == "q3"
        assert ordered[-1].query_id == "q29"
        assert query_input_bytes(ordered[-1]) > 5 * query_input_bytes(ordered[0])


class TestSectionTwoStudies:
    def test_leadtime_study_small(self):
        study = run_leadtime_study(seed=0, num_jobs=2000)
        assert 0.7 <= study.sufficient_fraction <= 0.9
        assert "Fig 3" in study.format()
        ratios, fractions = study.cdf()
        assert ratios == sorted(ratios)
        assert 0 < fractions[-1] <= 1.0

    def test_utilization_study_small(self):
        study = run_utilization_study(seed=0, num_servers=5, duration=6 * 3600)
        assert 0.0 < study.overall_mean < 0.15
        assert "Fig 4" in study.format()
        # One 5-minute window per 300s.
        assert len(study.mean_timeline.utilization) == 6 * 3600 // 300

    def test_block_read_study_small(self):
        study = run_block_read_study(seed=0, num_jobs=15)
        assert study.read_ratio("hdd") > study.read_ratio("ssd") > 1
        assert "Fig 1/2" in study.format()
        edges, freqs = study.read_histogram("hdd")
        assert len(edges) == len(freqs) + 1
        assert sum(freqs) == pytest.approx(1.0)
        values, fractions = study.mapper_cdf("hdd")
        assert values == sorted(values)
        assert fractions[-1] == pytest.approx(1.0)
