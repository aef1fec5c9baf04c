"""Tests for the synthetic Google trace generator."""

import pytest

from repro.workloads.google_trace import GoogleTraceGenerator, TaskUsageInterval


@pytest.fixture(scope="module")
def jobs():
    return GoogleTraceGenerator(seed=0).generate_jobs(num_jobs=8000)


class TestJobRows:
    def test_count(self, jobs):
        assert len(jobs) == 8000

    def test_queue_delay_marginals_match_paper(self, jobs):
        delays = sorted(j.queue_delay for j in jobs)
        mean = sum(delays) / len(delays)
        median = delays[len(delays) // 2]
        assert mean == pytest.approx(8.8, rel=0.2)
        assert median == pytest.approx(1.8, rel=0.15)

    def test_leadtime_sufficiency_near_81_percent(self, jobs):
        sufficient = sum(1 for j in jobs if j.total_read_time < j.lead_time)
        assert sufficient / len(jobs) == pytest.approx(0.81, abs=0.03)

    def test_read_time_splits_over_tasks(self, jobs):
        for job in jobs[:100]:
            assert job.total_read_time == pytest.approx(
                sum(job.task_io_times), rel=1e-9
            )
            assert all(t >= 0 for t in job.task_io_times)

    def test_submit_times_increase(self, jobs):
        submits = [j.submit_time for j in jobs]
        assert all(b > a for a, b in zip(submits, submits[1:]))

    def test_determinism(self):
        a = GoogleTraceGenerator(seed=9).generate_jobs(num_jobs=100)
        b = GoogleTraceGenerator(seed=9).generate_jobs(num_jobs=100)
        assert [j.queue_delay for j in a] == [j.queue_delay for j in b]

    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError):
            GoogleTraceGenerator(0).generate_jobs(num_jobs=0)


class TestServerUsage:
    def test_interval_structure(self):
        rows = GoogleTraceGenerator(seed=0).generate_server_usage(
            num_servers=3, duration=3600
        )
        servers = {r.server for r in rows}
        assert servers == {0, 1, 2}
        for row in rows:
            assert 0 <= row.io_time <= row.end - row.start
            assert row.end - row.start == pytest.approx(300.0)

    def test_mean_utilization_near_paper(self):
        rows = GoogleTraceGenerator(seed=0).generate_server_usage(
            num_servers=20, duration=12 * 3600
        )
        by_server_total = {}
        for row in rows:
            by_server_total[row.server] = by_server_total.get(row.server, 0) + row.io_time
        utils = [total / (12 * 3600) for total in by_server_total.values()]
        assert sum(utils) / len(utils) == pytest.approx(0.031, abs=0.012)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            TaskUsageInterval(server=0, start=10, end=10, io_time=0)
        with pytest.raises(ValueError):
            TaskUsageInterval(server=0, start=0, end=10, io_time=11)

    def test_zero_servers_rejected(self):
        with pytest.raises(ValueError):
            GoogleTraceGenerator(0).generate_server_usage(num_servers=0)


class TestWeeklyPattern:
    def test_day_factor_cycles(self):
        generator = GoogleTraceGenerator(seed=0)
        assert generator.day_factor(0) == 1.0
        assert generator.day_factor(7) == 1.0
        assert generator.day_factor(1) < 1.0

    def test_month_mean_vs_busiest_day_matches_paper(self):
        """Paper: ~3.1% over the analyzed 24h, ~1.3% over the month."""
        from repro.analysis import overall_mean_utilization, server_utilization

        generator = GoogleTraceGenerator(seed=0)
        week = 7 * 86400.0
        rows = generator.generate_server_usage(
            num_servers=4, duration=week, daily_pattern=True
        )
        # Coarser resolution keeps the week-long analysis fast; the
        # uniform-IO assumption makes the means resolution-independent.
        timelines = server_utilization(rows, duration=week, resolution=30.0)
        month_mean = overall_mean_utilization(timelines)

        day_rows = [r for r in rows if r.end <= 86400.0]
        day_timelines = server_utilization(
            day_rows, duration=86400.0, resolution=30.0
        )
        day_mean = overall_mean_utilization(day_timelines)

        assert day_mean == pytest.approx(0.031, abs=0.012)
        assert month_mean == pytest.approx(0.013, abs=0.006)
        assert day_mean > 1.8 * month_mean
