"""End-to-end integration tests across the whole stack."""

import pytest

from repro import IgnemConfig, JobSpec, build_paper_testbed
from repro.storage import GB, MB


class TestThreeConfigurations:
    """The paper's core comparison holds end-to-end on a fresh cluster."""

    def run(self, mode, seed=17, nbytes=1 * GB):
        cluster = build_paper_testbed(seed=seed, ignem=(mode == "ignem"))
        cluster.client.create_file("/in", nbytes)
        if mode == "ram":
            cluster.pin_all_inputs()
        job = cluster.engine.submit_job(
            JobSpec("scan", ("/in",), shuffle_bytes=32 * MB, num_reduces=2)
        )
        cluster.run()
        return job.duration, cluster

    def test_ordering_hdfs_ignem_ram(self):
        hdfs, _ = self.run("hdfs")
        ignem, _ = self.run("ignem")
        ram, _ = self.run("ram")
        assert hdfs > ignem
        assert ignem >= ram * 0.95

    def test_ignem_memory_is_clean_after_run(self):
        _, cluster = self.run("ignem")
        cluster.run()
        assert sum(s.migrated_bytes for s in cluster.ignem_master.slaves()) == 0
        assert all(
            s.reference_count() == 0 for s in cluster.ignem_master.slaves()
        )

    def test_determinism_across_identical_runs(self):
        first, _ = self.run("ignem", seed=5)
        second, _ = self.run("ignem", seed=5)
        assert first == second

    def test_seed_changes_placement(self):
        _, first = self.run("ignem", seed=5)
        _, second = self.run("ignem", seed=6)
        placement = lambda cluster: [
            tuple(cluster.namenode.get_block_locations(b.block_id))
            for b in cluster.namenode.file_blocks("/in")
        ]
        assert placement(first) != placement(second)


class TestConcurrentJobMix:
    def test_small_jobs_not_starved_by_large_ones(self):
        cluster = build_paper_testbed(seed=9, ignem=True)
        cluster.client.create_file("/big", 6 * GB)
        cluster.client.create_file("/small", 64 * MB)
        big = cluster.engine.submit_job(JobSpec("big", ("/big",), num_reduces=4))
        small = cluster.engine.submit_job(JobSpec("small", ("/small",)))
        cluster.run()
        assert small.duration < big.duration

    def test_smallest_job_first_migrates_small_job_fully(self):
        cluster = build_paper_testbed(seed=9, ignem=True)
        cluster.client.create_file("/big", 6 * GB)
        cluster.client.create_file("/small", 64 * MB)
        cluster.engine.submit_job(JobSpec("big", ("/big",), num_reduces=4))
        small = cluster.engine.submit_job(JobSpec("small", ("/small",)))
        cluster.run()
        small_reads = cluster.collector.block_reads_for_job(small.job_id)
        assert all(r.source == "ram" for r in small_reads)


class TestFailureInjection:
    def test_node_failure_mid_job_retries_tasks_elsewhere(self):
        """A whole-server failure mid-job: running containers die, the RM
        retries their tasks on surviving nodes, and the job completes."""
        # Plain HDFS so the maps are slow disk reads, guaranteed to
        # still be running when the server dies at t=8s.
        cluster = build_paper_testbed(seed=4)
        cluster.client.create_file("/in", 2 * GB)
        job = cluster.engine.submit_job(JobSpec("scan", ("/in",)))

        def killer(env):
            yield env.timeout(8.0)
            cluster.fail_node("node3")

        cluster.env.process(killer(cluster.env), name="killer")
        cluster.run()
        assert job.finished_at is not None
        assert cluster.rm.tasks_retried > 0
        # Retried attempts never land back on the dead node.
        late_tasks = [
            t for t in cluster.collector.tasks if t.start > 8.0
        ]
        assert all(t.node != "node3" for t in late_tasks)

    def test_master_failure_mid_workload_only_costs_performance(self):
        cluster = build_paper_testbed(seed=4, ignem=True)
        for index in range(4):
            cluster.client.create_file(f"/in{index}", 512 * MB)

        def chaos(env):
            yield env.timeout(6.0)
            cluster.ignem_master.fail()
            yield env.timeout(4.0)
            cluster.ignem_master.restart()

        cluster.env.process(chaos(cluster.env), name="chaos")
        jobs = [
            cluster.engine.submit_job(JobSpec(f"j{index}", (f"/in{index}",)))
            for index in range(4)
        ]
        cluster.run()
        for job in jobs:
            assert job.finished_at is not None

    def test_slave_restart_accepts_work_after_failure(self):
        cluster = build_paper_testbed(seed=4, ignem=True)
        cluster.client.create_file("/in", 512 * MB)
        slave = cluster.ignem_slaves["node0"]
        slave.fail()
        slave.datanode.restart()
        slave.restart()
        job = cluster.engine.submit_job(JobSpec("scan", ("/in",)))
        cluster.run()
        assert job.finished_at is not None


class TestBufferPressure:
    def test_tiny_buffer_still_completes_everything(self):
        cluster = build_paper_testbed(
            seed=4, ignem=True, ignem_config=IgnemConfig(buffer_capacity=128 * MB)
        )
        for index in range(3):
            cluster.client.create_file(f"/in{index}", 1 * GB)
        jobs = [
            cluster.engine.submit_job(JobSpec(f"j{index}", (f"/in{index}",)))
            for index in range(3)
        ]
        cluster.run()
        for job in jobs:
            assert job.finished_at is not None
        for slave in cluster.ignem_slaves.values():
            assert slave.migrated_bytes <= 128 * MB

    def test_do_not_harm_never_preempts_under_pressure(self):
        cluster = build_paper_testbed(
            seed=4, ignem=True, ignem_config=IgnemConfig(buffer_capacity=128 * MB)
        )
        for index in range(3):
            cluster.client.create_file(f"/in{index}", 1 * GB)
        for index in range(3):
            cluster.engine.submit_job(JobSpec(f"j{index}", (f"/in{index}",)))
        cluster.run()
        assert not any(
            e.reason == "preempted" for e in cluster.collector.evictions
        )


class TestSsdCluster:
    def test_ignem_harmless_and_active_on_ssd(self):
        """The paper argues migration matters on SSD too (Fig 1b): the
        RAM gap is smaller (7x instead of 160x) so gains shrink, but
        migration must at least do no meaningful harm and still run."""

        def run(mode):
            cluster = build_paper_testbed(
                seed=8, tier_preset="mem-ssd", ignem=(mode == "ignem")
            )
            cluster.client.create_file("/in", 2 * GB)
            job = cluster.engine.submit_job(
                JobSpec("scan", ("/in",), map_cpu_factor=2.0)
            )
            cluster.run()
            return job.duration, cluster

        ignem_duration, ignem_cluster = run("ignem")
        hdfs_duration, _ = run("hdfs")
        assert ignem_duration <= hdfs_duration * 1.02
        assert ignem_cluster.collector.completed_migrations()
