"""Tests for the extension features: benefit-aware policy, HA master,
and the Aqueduct-style busy throttle."""

import pytest

from repro import IgnemConfig, JobSpec, build_paper_testbed
from repro.core import BenefitAware, HighAvailabilityMaster, make_policy
from repro.core.policy import EXPECTED_LEAD_BYTES
from repro.core.commands import MigrationWorkItem
from repro.dfs import Block
from repro.storage import GB, MB

from .conftest import make_cluster


def item(job_id="j", input_bytes=100 * MB, submitted_at=0.0):
    return MigrationWorkItem(
        block=Block(f"{job_id}-b", "/f", 0, 64 * MB),
        job_id=job_id,
        job_input_bytes=input_bytes,
        job_submitted_at=submitted_at,
        implicit_eviction=False,
    )


class TestBenefitAwarePolicy:
    def test_small_jobs_saturate_benefit(self):
        policy = BenefitAware()
        assert policy.benefit(item(input_bytes=EXPECTED_LEAD_BYTES / 8)) == 1.0
        assert policy.benefit(item(input_bytes=EXPECTED_LEAD_BYTES)) == 1.0

    def test_large_jobs_get_partial_benefit(self):
        policy = BenefitAware()
        benefit = policy.benefit(item(input_bytes=4 * EXPECTED_LEAD_BYTES))
        assert benefit == pytest.approx(0.25)

    def test_higher_benefit_migrates_first(self):
        policy = BenefitAware()
        small = item("small", input_bytes=128 * MB)
        huge = item("huge", input_bytes=10 * GB)
        assert policy.priority(small) < policy.priority(huge)

    def test_saturated_jobs_tie_break_by_submission(self):
        policy = BenefitAware()
        early = item("early", input_bytes=64 * MB, submitted_at=1.0)
        late_but_smaller = item("late", input_bytes=1 * MB, submitted_at=2.0)
        # Both fully migrable: FIFO between them, unlike smallest-first.
        assert policy.priority(early) < policy.priority(late_but_smaller)

    def test_factory_and_validation(self):
        assert isinstance(make_policy("benefit-aware"), BenefitAware)
        # The lead is the constant EXPECTED_LEAD_BYTES, not a parameter:
        # passing one is rejected outright.
        with pytest.raises(TypeError):
            BenefitAware(expected_lead_bytes=0)

    def test_end_to_end_with_benefit_aware_config(self):
        cluster = make_cluster(
            ignem_config=IgnemConfig(policy="benefit-aware")
        )
        cluster.client.create_file("/f", 256 * MB)
        cluster.rm.register_job("j1")
        cluster.ignem_master.request_migration(["/f"], "j1")
        cluster.run()
        total = sum(s.migrated_bytes for s in cluster.ignem_master.slaves())
        assert total == 256 * MB


class TestHighAvailabilityMaster:
    def build(self):
        cluster = build_paper_testbed(num_nodes=4, replication=2, seed=13)
        ha = cluster.enable_ignem(IgnemConfig(), ha=True)
        assert isinstance(ha, HighAvailabilityMaster)
        return cluster, ha

    def test_primary_serves_by_default(self):
        cluster, ha = self.build()
        assert ha.active is ha.primary
        cluster.client.create_file("/f", 128 * MB)
        cluster.rm.register_job("j1")
        ha.request_migration(["/f"], "j1")
        cluster.run()
        assert sum(s.migrated_bytes for s in ha.slaves()) == 128 * MB

    def test_failover_is_immediate(self):
        cluster, ha = self.build()
        cluster.client.create_file("/f", 128 * MB)
        cluster.rm.register_job("j1")
        ha.fail_primary()
        assert ha.active is ha.standby
        assert ha.alive
        assert ha.failovers == 1
        ha.request_migration(["/f"], "j1")
        cluster.run()
        # Unlike a master restart, no request was lost.
        assert sum(s.migrated_bytes for s in ha.slaves()) == 128 * MB

    def test_failover_purges_slave_state(self):
        cluster, ha = self.build()
        cluster.client.create_file("/f", 128 * MB)
        cluster.rm.register_job("j1")
        ha.request_migration(["/f"], "j1")
        cluster.run()
        assert sum(s.migrated_bytes for s in ha.slaves()) > 0
        sent = []
        original = cluster.transport.send

        def recording(endpoint, message):
            sent.append((endpoint, type(message).__name__))
            original(endpoint, message)

        cluster.transport.send = recording
        ha.fail_primary()
        assert sum(s.migrated_bytes for s in ha.slaves()) == 0
        assert sorted(sent) == [
            (f"slave/{name}", "FailoverMsg") for name in cluster.node_names()
        ]

    def test_double_failure_kills_service(self):
        cluster, ha = self.build()
        ha.fail_primary()
        ha.standby.fail()
        assert not ha.alive
        cluster.client.create_file("/f", 64 * MB)
        ha.request_migration(["/f"], "j1")  # dropped, no crash
        cluster.run()
        assert all(s.migrated_bytes == 0 for s in ha.standby.slaves())

    def test_recover_primary_swaps_roles(self):
        cluster, ha = self.build()
        old_primary = ha.primary
        old_standby = ha.standby
        ha.fail_primary()
        ha.recover_primary()
        assert ha.primary is old_standby
        assert ha.standby is old_primary
        assert ha.active.alive

    def test_fail_primary_idempotent(self):
        cluster, ha = self.build()
        ha.fail_primary()
        ha.fail_primary()
        assert ha.failovers == 1

    def test_eviction_routed_through_active(self):
        cluster, ha = self.build()
        cluster.client.create_file("/f", 128 * MB)
        cluster.rm.register_job("j1")
        ha.fail_primary()
        ha.request_migration(["/f"], "j1")
        cluster.run()
        ha.request_eviction(["/f"], "j1")
        cluster.run()
        assert sum(s.migrated_bytes for s in ha.slaves()) == 0


class TestBusyThrottle:
    def test_throttle_defers_migration_under_load(self):
        config = IgnemConfig(busy_threshold=1)
        cluster = make_cluster(ignem_config=config, num_nodes=1, replication=1)
        cluster.client.create_file("/f", 64 * MB)
        cluster.rm.register_job("j1")

        # Keep the disk busy with a long foreground read.
        disk = cluster.datanodes["node0"].disk
        disk.transfer(640 * MB, tag="foreground")

        def migrator(env):
            yield env.timeout(0.05)  # let the foreground stream be admitted
            cluster.ignem_master.request_migration(["/f"], "j1")

        cluster.env.process(migrator(cluster.env))
        # While the foreground stream runs, migration must hold off.
        cluster.env.run(until=2.0)
        slave = cluster.ignem_slaves["node0"]
        assert slave.migrated_bytes == 0
        cluster.run()
        assert slave.migrated_bytes == 64 * MB

    def test_throttle_skips_if_job_reads_while_waiting(self):
        config = IgnemConfig(busy_threshold=1)
        cluster = make_cluster(ignem_config=config, num_nodes=1, replication=1)
        cluster.client.create_file("/f", 64 * MB)
        cluster.rm.register_job("j1")
        block = cluster.namenode.file_blocks("/f")[0]

        disk = cluster.datanodes["node0"].disk
        disk.transfer(640 * MB, tag="foreground")

        def migrator(env):
            # Let the foreground stream clear the disk's setup latency so
            # the throttle sees it as active when the command arrives.
            yield env.timeout(0.05)
            cluster.ignem_master.request_migration(
                ["/f"], "j1", implicit_eviction=True
            )

        def reader(env):
            yield env.timeout(0.5)
            read = cluster.client.read_block(block, "node0", job_id="j1")
            yield read.done

        cluster.env.process(migrator(cluster.env))
        cluster.env.process(reader(cluster.env))
        cluster.run()
        outcomes = {m.outcome for m in cluster.collector.migrations}
        assert outcomes == {"skipped"}
        assert cluster.ignem_slaves["node0"].migrated_bytes == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            IgnemConfig(busy_threshold=0)
