"""Tests for records, the collector, and statistics helpers."""

import pytest

from repro.metrics import (
    BlockReadRecord,
    JobRecord,
    MetricsCollector,
    MigrationRecord,
    TaskRecord,
    cdf,
    fraction_below,
    histogram,
    mean,
    median,
    percentile,
    speedup,
    speedup_factor,
)


def block_read(job="j1", task="t1", duration=1.0, source="hdd", start=0.0):
    return BlockReadRecord(
        job_id=job,
        task_id=task,
        block_id="b1",
        node="n0",
        source=source,
        nbytes=64,
        start=start,
        end=start + duration,
    )


def task(job="j1", task_id="t1", kind="map", duration=2.0):
    return TaskRecord(
        job_id=job,
        task_id=task_id,
        kind=kind,
        node="n0",
        scheduled_at=0.0,
        start=1.0,
        end=1.0 + duration,
    )


def job(job_id="j1", duration=10.0):
    return JobRecord(
        job_id=job_id,
        name=job_id,
        submitted_at=0.0,
        first_task_start=2.0,
        end=duration,
        input_bytes=100,
        num_maps=1,
        num_reduces=1,
        failed=False,
    )


class TestRecords:
    def test_durations(self):
        assert block_read(duration=3.0).duration == 3.0
        assert task(duration=4.0).duration == 4.0
        assert job(duration=9.0).duration == 9.0

    def test_job_lead_time(self):
        assert job().lead_time == 2.0

    def test_task_queue_delay(self):
        assert task().queue_delay == 1.0

    def test_migration_duration(self):
        record = MigrationRecord(
            job_id="j",
            block_id="b",
            node="n",
            nbytes=1,
            enqueued_at=0.0,
            start=1.0,
            end=3.0,
            outcome="completed",
            tier="mem",
            queue_wait=0.0,
        )
        assert record.duration == 2.0


class TestCollector:
    def test_mean_helpers(self):
        collector = MetricsCollector()
        collector.record_job(job("a", 10.0))
        collector.record_job(job("b", 20.0))
        collector.record_task(task("a", "t1", "map", 2.0))
        collector.record_task(task("a", "t2", "reduce", 6.0))
        collector.record_block_read(block_read(duration=1.0))
        assert collector.mean_job_duration() == 15.0
        assert collector.mean_task_duration() == 4.0
        assert collector.mean_task_duration("map") == 2.0
        assert collector.mean_block_read_duration() == 1.0

    def test_empty_means_raise(self):
        collector = MetricsCollector()
        with pytest.raises(ValueError):
            collector.mean_job_duration()
        with pytest.raises(ValueError):
            collector.mean_task_duration()
        with pytest.raises(ValueError):
            collector.mean_block_read_duration()

    def test_queries(self):
        collector = MetricsCollector()
        collector.record_job(job("a"))
        collector.record_task(task("a", "t1", "map"))
        collector.record_task(task("b", "t2", "reduce"))
        collector.record_block_read(block_read(job="a"))
        assert collector.job("a") is not None
        assert collector.job("zzz") is None
        assert len(collector.tasks_for_job("a")) == 1
        assert len(collector.map_tasks()) == 1
        assert len(collector.reduce_tasks()) == 1
        assert len(collector.block_reads_for_job("a")) == 1
        assert collector.filter_jobs(lambda j: j.job_id == "a")

    def test_completed_migrations_filter(self):
        collector = MetricsCollector()
        for outcome in ("completed", "skipped", "cancelled"):
            collector.record_migration(
                MigrationRecord(
                    job_id="j",
                    block_id="b",
                    node="n",
                    nbytes=1,
                    enqueued_at=0,
                    start=0,
                    end=0,
                    outcome=outcome,
                    tier="mem",
                    queue_wait=0.0,
                )
            )
        assert len(collector.completed_migrations()) == 1

    def test_summary(self):
        collector = MetricsCollector()
        collector.record_job(job())
        summary = collector.summary()
        assert summary["jobs"] == 1
        assert "mean_job_duration" in summary


class TestStats:
    def test_mean_median(self):
        assert mean([1, 2, 3]) == 2.0
        assert median([1, 2, 3, 100]) == 2.5

    def test_percentile(self):
        assert percentile(list(range(101)), 90) == pytest.approx(90.0)
        with pytest.raises(ValueError):
            percentile([1], 101)

    def test_cdf_monotone(self):
        values, fractions = cdf([3, 1, 2])
        assert values == [1, 2, 3]
        assert fractions == [pytest.approx(1 / 3), pytest.approx(2 / 3), 1.0]

    def test_fraction_below(self):
        assert fraction_below([1, 2, 3, 4], 3) == 0.5

    def test_histogram_normalized(self):
        edges, freqs = histogram([1, 1, 2, 3], bins=3)
        assert sum(freqs) == pytest.approx(1.0)
        assert len(edges) == 4

    def test_speedup_matches_paper_convention(self):
        # Table I: Ignem 12.7s vs HDFS 14.4s is a 12% speedup.
        assert speedup(14.4, 12.7) == pytest.approx(0.118, abs=0.002)

    def test_speedup_factor(self):
        assert speedup_factor(160.0, 1.0) == 160.0

    def test_empty_inputs_raise(self):
        for fn in (mean, median, cdf):
            with pytest.raises(ValueError):
                fn([])
        with pytest.raises(ValueError):
            fraction_below([], 1)
        with pytest.raises(ValueError):
            histogram([])
        with pytest.raises(ValueError):
            speedup(0, 1)
        with pytest.raises(ValueError):
            speedup_factor(1, 0)
