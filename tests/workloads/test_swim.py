"""Tests for the SWIM workload generator."""

import pytest

from repro.workloads.swim import SwimGenerator, size_bin, to_specs
from repro.storage import GB, MB


@pytest.fixture(scope="module")
def jobs():
    return SwimGenerator(seed=0).generate()


class TestMarginals:
    def test_job_count(self, jobs):
        assert len(jobs) == 200

    def test_total_bytes_close_to_170gb(self, jobs):
        total = sum(j.input_bytes for j in jobs)
        assert total == pytest.approx(170 * GB, rel=0.02)

    def test_small_job_fraction(self, jobs):
        small = sum(1 for j in jobs if j.input_bytes <= 64 * MB)
        assert small / len(jobs) == pytest.approx(0.85, abs=0.02)

    def test_largest_job_at_most_24gb(self, jobs):
        assert max(j.input_bytes for j in jobs) <= 24 * GB

    def test_heavy_tail_exists(self, jobs):
        assert max(j.input_bytes for j in jobs) >= 4 * GB

    def test_all_three_bins_present(self, jobs):
        bins = {size_bin(j.input_bytes) for j in jobs}
        assert bins == {"small", "medium", "large"}

    def test_arrivals_strictly_increasing(self, jobs):
        arrivals = [j.arrival_time for j in jobs]
        assert all(b > a for a, b in zip(arrivals, arrivals[1:]))

    def test_shuffle_and_output_bounded_by_input(self, jobs):
        for job in jobs:
            assert 0 <= job.shuffle_bytes <= job.input_bytes
            assert 0 <= job.output_bytes <= job.shuffle_bytes


class TestDeterminism:
    def test_same_seed_same_workload(self):
        a = SwimGenerator(seed=5).generate()
        b = SwimGenerator(seed=5).generate()
        assert [j.input_bytes for j in a] == [j.input_bytes for j in b]
        assert [j.arrival_time for j in a] == [j.arrival_time for j in b]

    def test_different_seed_different_workload(self):
        a = SwimGenerator(seed=5).generate()
        b = SwimGenerator(seed=6).generate()
        assert [j.input_bytes for j in a] != [j.input_bytes for j in b]


class TestValidation:
    def test_zero_jobs_rejected(self):
        with pytest.raises(ValueError):
            SwimGenerator(0).generate(num_jobs=0)

    def test_bad_small_fraction_rejected(self):
        with pytest.raises(ValueError):
            SwimGenerator(0).generate(small_fraction=1.5)


class TestToSpecs:
    def test_specs_align_with_jobs(self, jobs):
        specs, arrivals = to_specs(jobs)
        assert len(specs) == len(arrivals) == len(jobs)
        for spec, job in zip(specs, jobs):
            assert spec.input_paths == (job.input_path,)
            assert spec.shuffle_bytes == job.shuffle_bytes
            assert spec.num_reduces >= 1

    def test_reduces_scale_with_shuffle(self, jobs):
        specs, _ = to_specs(jobs)
        big = max(specs, key=lambda s: s.shuffle_bytes)
        small = min(specs, key=lambda s: s.shuffle_bytes)
        assert big.num_reduces >= small.num_reduces


class TestSizeBin:
    def test_boundaries(self):
        assert size_bin(64 * MB) == "small"
        assert size_bin(64 * MB + 1) == "medium"
        assert size_bin(512 * MB) == "medium"
        assert size_bin(512 * MB + 1) == "large"
