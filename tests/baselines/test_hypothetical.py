"""Tests for the hypothetical instantaneous scheme (Fig 7 baseline)."""

import pytest

from repro import JobSpec, build_paper_testbed
from repro.baselines import (
    MemoryTimeline,
    hypothetical_memory_timelines,
    ignem_memory_timelines,
    mean_footprint,
)
from repro.metrics.records import JobRecord
from repro.storage import GB, MB


def make_job_record(job_id, submitted, end, input_bytes=64 * MB):
    return JobRecord(
        job_id=job_id,
        name=job_id,
        submitted_at=submitted,
        first_task_start=submitted + 1,
        end=end,
        input_bytes=input_bytes,
        num_maps=1,
        num_reduces=0,
        failed=False,
    )


class TestMemoryTimeline:
    def test_nonzero_samples(self):
        timeline = MemoryTimeline(
            node="n", points=((0.0, 0.0), (1.0, 100.0), (3.0, 0.0), (4.0, 50.0))
        )
        assert timeline.nonzero_samples() == [100.0, 50.0]

    def test_time_weighted_mean_ignores_zero_periods(self):
        timeline = MemoryTimeline(
            node="n",
            points=((0.0, 0.0), (10.0, 100.0), (12.0, 0.0), (20.0, 200.0), (24.0, 0.0)),
        )
        # 100 bytes for 2s + 200 bytes for 4s over 6 non-zero seconds.
        assert timeline.time_weighted_mean_nonzero() == pytest.approx(
            (100 * 2 + 200 * 4) / 6
        )

    def test_empty_timeline_mean_is_zero(self):
        timeline = MemoryTimeline(node="n", points=((0.0, 0.0),))
        assert timeline.time_weighted_mean_nonzero() == 0.0
        assert timeline.peak() == 0.0

    def test_peak(self):
        timeline = MemoryTimeline(node="n", points=((0.0, 5.0), (1.0, 9.0)))
        assert timeline.peak() == 9.0


class TestHypotheticalTimelines:
    def test_memory_held_from_submit_to_completion(self):
        cluster = build_paper_testbed(seed=1)
        cluster.client.create_file("/f", 64 * MB)
        jobs = [make_job_record("j1", submitted=10.0, end=50.0)]
        timelines = hypothetical_memory_timelines(
            cluster, jobs, {"j1": ("/f",)}, seed=0
        )
        assert len(timelines) == 1  # one block -> one chosen server
        timeline = next(iter(timelines.values()))
        levels = dict(timeline.points)
        assert levels[10.0] == 64 * MB
        assert levels[50.0] == 0.0

    def test_overlapping_jobs_stack(self):
        cluster = build_paper_testbed(seed=1)
        cluster.client.create_file("/f", 64 * MB)
        jobs = [
            make_job_record("j1", submitted=0.0, end=100.0),
            make_job_record("j2", submitted=10.0, end=90.0),
        ]
        timelines = hypothetical_memory_timelines(
            cluster, jobs, {"j1": ("/f",), "j2": ("/f",)}, seed=0
        )
        peak = max(t.peak() for t in timelines.values())
        # Same seeded replica choice per job may or may not coincide;
        # total across servers must be 2 blocks at the overlap.
        total_peak = sum(t.peak() for t in timelines.values())
        assert total_peak == pytest.approx(128 * MB)
        assert peak >= 64 * MB

    def test_missing_paths_ignored(self):
        cluster = build_paper_testbed(seed=1)
        jobs = [make_job_record("j1", submitted=0.0, end=10.0)]
        timelines = hypothetical_memory_timelines(
            cluster, jobs, {"j1": ("/ghost",)}, seed=0
        )
        assert timelines == {}

    def test_mean_footprint_averages_servers(self):
        timelines = {
            "a": MemoryTimeline("a", ((0.0, 0.0), (0.0, 100.0), (10.0, 0.0))),
            "b": MemoryTimeline("b", ((0.0, 0.0), (0.0, 300.0), (10.0, 0.0))),
        }
        assert mean_footprint(timelines) == pytest.approx(200.0)

    def test_mean_footprint_empty(self):
        assert mean_footprint({}) == 0.0


class TestIgnemTimelines:
    def test_requires_ignem_enabled(self):
        cluster = build_paper_testbed(seed=1)
        with pytest.raises(ValueError):
            ignem_memory_timelines(cluster)

    def test_reflects_slave_usage(self):
        cluster = build_paper_testbed(seed=1, ignem=True)
        cluster.client.create_file("/f", 128 * MB)
        cluster.rm.register_job("j1")
        cluster.ignem_master.request_migration(["/f"], "j1")
        cluster.run()
        timelines = ignem_memory_timelines(cluster)
        assert sum(t.peak() for t in timelines.values()) == pytest.approx(128 * MB)
