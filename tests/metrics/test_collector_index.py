"""Regression tests for the lazy id->record indexes on MetricsCollector.

``job()`` and ``tasks_for_job()`` used to scan linearly per call; they
are now backed by lazily built indexes that must be invalidated on
append and must return exactly what the scans returned.
"""

from repro.metrics.collector import MetricsCollector
from repro.metrics.records import JobRecord, TaskRecord


def _job(job_id, name="j"):
    return JobRecord(
        job_id=job_id,
        name=name,
        submitted_at=0.0,
        first_task_start=0.0,
        end=1.0,
        input_bytes=0.0,
        num_maps=1,
        num_reduces=0,
        failed=False,
    )


def _task(job_id, task_id, kind="map"):
    return TaskRecord(
        job_id=job_id,
        task_id=task_id,
        kind=kind,
        node="node0",
        scheduled_at=0.0,
        start=0.0,
        end=1.0,
    )


def _scan_job(collector, job_id):
    for record in collector.jobs:
        if record.job_id == job_id:
            return record
    return None


def _scan_tasks(collector, job_id, kind=None):
    return [
        t
        for t in collector.tasks
        if t.job_id == job_id and (kind is None or t.kind == kind)
    ]


class TestJobIndex:
    def test_matches_linear_scan(self):
        collector = MetricsCollector()
        for i in range(20):
            collector.record_job(_job(f"job{i}"))
        for i in range(20):
            assert collector.job(f"job{i}") is _scan_job(collector, f"job{i}")
        assert collector.job("missing") is None

    def test_invalidated_on_append_after_lookup(self):
        collector = MetricsCollector()
        collector.record_job(_job("a"))
        assert collector.job("a") is not None  # builds the index
        collector.record_job(_job("b"))
        assert collector.job("b") is collector.jobs[1]

    def test_detects_direct_list_append(self):
        collector = MetricsCollector()
        collector.record_job(_job("a"))
        assert collector.job("b") is None  # builds the index
        collector.jobs.append(_job("b"))  # bypasses record_job
        assert collector.job("b") is collector.jobs[1]

    def test_duplicate_ids_keep_first_record(self):
        collector = MetricsCollector()
        first, second = _job("dup"), _job("dup")
        collector.record_job(first)
        collector.record_job(second)
        assert collector.job("dup") is first
        assert collector.job("dup") is _scan_job(collector, "dup")


class TestTasksIndex:
    def test_matches_linear_scan_with_and_without_kind(self):
        collector = MetricsCollector()
        for i in range(10):
            job_id = f"job{i % 3}"
            collector.record_task(_task(job_id, f"t{i}", kind="map"))
            collector.record_task(_task(job_id, f"r{i}", kind="reduce"))
        for job_id in ("job0", "job1", "job2", "missing"):
            assert collector.tasks_for_job(job_id) == _scan_tasks(
                collector, job_id
            )
            for kind in ("map", "reduce"):
                assert collector.tasks_for_job(job_id, kind) == _scan_tasks(
                    collector, job_id, kind
                )

    def test_preserves_append_order(self):
        collector = MetricsCollector()
        tasks = [_task("j", f"t{i}") for i in range(5)]
        for task in tasks:
            collector.record_task(task)
        assert collector.tasks_for_job("j") == tasks

    def test_invalidated_on_append_and_direct_append(self):
        collector = MetricsCollector()
        collector.record_task(_task("j", "t0"))
        assert len(collector.tasks_for_job("j")) == 1  # builds the index
        collector.record_task(_task("j", "t1"))
        assert len(collector.tasks_for_job("j")) == 2
        collector.tasks.append(_task("j", "t2"))  # bypasses record_task
        assert len(collector.tasks_for_job("j")) == 3

    def test_returned_list_is_a_copy(self):
        collector = MetricsCollector()
        collector.record_task(_task("j", "t0"))
        listing = collector.tasks_for_job("j")
        listing.append("sentinel")
        assert collector.tasks_for_job("j") == [collector.tasks[0]]
