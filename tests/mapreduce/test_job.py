"""Tests for the MapReduce engine and job lifecycle."""

import pytest

from repro import JobSpec, build_paper_testbed
from repro.mapreduce import EngineConfig
from repro.storage import GB, MB


def small_cluster(**kwargs):
    kwargs.setdefault("num_nodes", 4)
    kwargs.setdefault("replication", 2)
    return build_paper_testbed(**kwargs)


class TestJobSpecValidation:
    def test_requires_input_paths(self):
        with pytest.raises(ValueError):
            JobSpec("empty", ())

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            JobSpec("bad", ("/f",), shuffle_bytes=-1)
        with pytest.raises(ValueError):
            JobSpec("bad", ("/f",), output_bytes=-1)

    def test_rejects_negative_reduces(self):
        with pytest.raises(ValueError):
            JobSpec("bad", ("/f",), num_reduces=-1)

    def test_engine_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(task_startup_overhead=-1)
        with pytest.raises(ValueError):
            EngineConfig(output_replication=0)


class TestJobExecution:
    def test_map_only_job_completes(self):
        cluster = small_cluster()
        cluster.client.create_file("/in", 128 * MB)
        job = cluster.engine.submit_job(
            JobSpec("maponly", ("/in",), num_reduces=0)
        )
        cluster.run()
        assert job.finished_at is not None
        assert job.num_maps == 2
        assert job.num_reduces == 0
        assert len(cluster.collector.tasks_for_job(job.job_id, "map")) == 2
        assert not cluster.collector.tasks_for_job(job.job_id, "reduce")

    def test_one_map_task_per_block(self):
        cluster = small_cluster()
        cluster.client.create_file("/in", 320 * MB)  # 5 blocks
        job = cluster.engine.submit_job(JobSpec("j", ("/in",)))
        cluster.run()
        assert job.num_maps == 5
        assert len(cluster.collector.block_reads_for_job(job.job_id)) == 5

    def test_multiple_input_files(self):
        cluster = small_cluster()
        cluster.client.create_file("/a", 64 * MB)
        cluster.client.create_file("/b", 128 * MB)
        job = cluster.engine.submit_job(JobSpec("j", ("/a", "/b")))
        cluster.run()
        assert job.num_maps == 3
        assert job.input_bytes == 192 * MB

    def test_reduces_start_after_all_maps(self):
        cluster = small_cluster()
        cluster.client.create_file("/in", 256 * MB)
        job = cluster.engine.submit_job(
            JobSpec("j", ("/in",), shuffle_bytes=64 * MB, num_reduces=2)
        )
        cluster.run()
        maps = cluster.collector.tasks_for_job(job.job_id, "map")
        reduces = cluster.collector.tasks_for_job(job.job_id, "reduce")
        assert len(reduces) == 2
        last_map_end = max(t.end for t in maps)
        first_reduce_start = min(t.start for t in reduces)
        assert first_reduce_start >= last_map_end

    def test_job_record_written(self):
        cluster = small_cluster()
        cluster.client.create_file("/in", 64 * MB)
        job = cluster.engine.submit_job(JobSpec("named", ("/in",)))
        cluster.run()
        record = cluster.collector.job(job.job_id)
        assert record is not None
        assert record.name == "named"
        assert record.duration == pytest.approx(job.duration)
        assert record.lead_time > 0

    def test_job_output_files_created(self):
        cluster = small_cluster()
        cluster.client.create_file("/in", 64 * MB)
        job = cluster.engine.submit_job(
            JobSpec(
                "j", ("/in",), shuffle_bytes=32 * MB, output_bytes=16 * MB,
                num_reduces=2,
            )
        )
        cluster.run()
        for index in range(2):
            path = f"/out/{job.job_id}/part-{index:04d}"
            assert cluster.namenode.exists(path)
            assert cluster.namenode.get_file(path).nbytes == 8 * MB

    def test_duration_before_finish_raises(self):
        cluster = small_cluster()
        cluster.client.create_file("/in", 64 * MB)
        job = cluster.engine.submit_job(JobSpec("j", ("/in",)))
        with pytest.raises(RuntimeError):
            _ = job.duration

    def test_unknown_input_path_raises(self):
        cluster = small_cluster()
        from repro.dfs import NameNodeError

        with pytest.raises(NameNodeError):
            cluster.engine.submit_job(JobSpec("j", ("/ghost",)))

    def test_extra_lead_time_counted_in_duration(self):
        base = small_cluster(seed=5)
        base.client.create_file("/in", 64 * MB)
        job_a = base.engine.submit_job(JobSpec("j", ("/in",)), extra_lead_time=0.0)
        base.run()

        delayed = small_cluster(seed=5)
        delayed.client.create_file("/in", 64 * MB)
        job_b = delayed.engine.submit_job(
            JobSpec("j", ("/in",)), extra_lead_time=10.0
        )
        delayed.run()
        assert job_b.duration >= job_a.duration + 5.0


class TestStorageEffects:
    def test_pinned_inputs_make_maps_faster(self):
        def run(pin):
            cluster = small_cluster(seed=3)
            cluster.client.create_file("/in", 640 * MB)
            if pin:
                cluster.pin_all_inputs()
            cluster.engine.submit_job(JobSpec("j", ("/in",)))
            cluster.run()
            return cluster.collector.mean_task_duration("map")

        assert run(pin=True) < run(pin=False) / 3

    def test_block_read_sources_reported(self):
        cluster = small_cluster()
        cluster.client.create_file("/in", 128 * MB)
        cluster.pin_all_inputs()
        job = cluster.engine.submit_job(JobSpec("j", ("/in",)))
        cluster.run()
        reads = cluster.collector.block_reads_for_job(job.job_id)
        assert all(r.source == "ram" for r in reads)

    def test_cold_reads_come_from_disk(self):
        cluster = small_cluster()
        cluster.client.create_file("/in", 128 * MB)
        job = cluster.engine.submit_job(JobSpec("j", ("/in",)))
        cluster.run()
        reads = cluster.collector.block_reads_for_job(job.job_id)
        assert all(r.source == "hdd" for r in reads)


class TestWorkload:
    def test_run_workload_submits_at_arrival_times(self):
        cluster = small_cluster()
        for index in range(3):
            cluster.client.create_file(f"/in{index}", 64 * MB)
        specs = [JobSpec(f"j{i}", (f"/in{i}",)) for i in range(3)]
        done = cluster.engine.run_workload(specs, [0.0, 5.0, 10.0])
        cluster.run(until=done)
        jobs = sorted(cluster.collector.jobs, key=lambda j: j.submitted_at)
        assert [j.submitted_at for j in jobs] == [0.0, 5.0, 10.0]

    def test_run_workload_length_mismatch_raises(self):
        cluster = small_cluster()
        cluster.client.create_file("/in", 64 * MB)
        with pytest.raises(ValueError):
            cluster.engine.run_workload([JobSpec("j", ("/in",))], [0.0, 1.0])

    def test_concurrent_jobs_all_complete(self):
        cluster = small_cluster()
        specs = []
        for index in range(5):
            cluster.client.create_file(f"/in{index}", 128 * MB)
            specs.append(JobSpec(f"j{i}" if False else f"j{index}", (f"/in{index}",)))
        done = cluster.engine.run_workload(specs, [0.0] * 5)
        cluster.run(until=done)
        assert len(cluster.collector.jobs) == 5
