"""HA master failover mid-run (paper III-A5 with a standby pair)."""

from repro.storage import GB, MB
from tests.fixtures import make_ignem_cluster


def make_ha_cluster():
    return make_ignem_cluster(ha=True, buffer_capacity=1 * GB)


class TestFailoverMidRun:
    def test_failover_purges_slaves_and_standby_serves(self):
        cluster, ha = make_ha_cluster()
        cluster.client.create_file("/f", 256 * MB)
        checkpoints = {}

        def driver(env):
            ha.request_migration(["/f"], "j1")
            yield env.timeout(0.05)  # mid-migration
            checkpoints["refs_before"] = sum(
                s.reference_count() for s in ha.slaves()
            )
            ha.fail_primary()
            # III-A5: the slaves purge every reference and migrated block
            # the moment the master is lost — the new master starts from
            # a state consistent with theirs.
            checkpoints["refs_after"] = sum(
                s.reference_count() for s in ha.slaves()
            )
            checkpoints["bytes_after"] = sum(
                s.migrated_bytes for s in ha.slaves()
            )
            yield env.timeout(0.05)
            # The standby is now active and serves new migrate calls.
            ha.request_migration(["/f"], "j2")

        cluster.env.process(driver(cluster.env), name="driver")
        cluster.run()

        assert checkpoints["refs_before"] > 0
        assert checkpoints["refs_after"] == 0
        assert checkpoints["bytes_after"] == 0
        assert ha.failovers == 1
        for block in cluster.namenode.file_blocks("/f"):
            assert any(s.block_migrated(block.block_id) for s in ha.slaves())

    def test_recover_primary_swaps_roles_back_cleanly(self):
        cluster, ha = make_ha_cluster()
        cluster.client.create_file("/f", 128 * MB)

        def driver(env):
            ha.fail_primary()
            yield env.timeout(1.0)
            ha.recover_primary()
            yield env.timeout(1.0)
            ha.request_migration(["/f"], "j1")

        cluster.env.process(driver(cluster.env), name="driver")
        cluster.run()

        assert ha.failovers == 1
        assert ha.alive
        for block in cluster.namenode.file_blocks("/f"):
            assert any(s.block_migrated(block.block_id) for s in ha.slaves())

    def test_repeated_failure_is_idempotent(self):
        cluster, ha = make_ha_cluster()
        ha.fail_primary()
        assert ha.alive  # standby took over
        ha.fail_primary()  # already failed: swallowed, not double-counted
        assert ha.failovers == 1
        assert ha.alive


class TestTapPassThroughs:
    def test_taps_read_back_through_the_pair_across_a_failover(self):
        # The DST harness sets these on the pair; each must reach both
        # masters, so the standby keeps reporting after it takes over.
        cluster, ha = make_ha_cluster()
        cluster.client.create_file("/f", 128 * MB)
        deliveries = []
        failures = []

        def rpc_fault(node):
            return None

        def command_tap(node, kind, command, slave):
            deliveries.append((node, kind))

        ha.rpc_fault = rpc_fault
        ha.command_tap = command_tap
        ha.failure_tap = failures.append
        taps = {
            "rpc_fault": rpc_fault,
            "command_tap": command_tap,
            "failure_tap": failures.append,
        }
        for name, tap in taps.items():
            assert getattr(ha, name) == tap
            assert getattr(ha.primary, name) == tap
            assert getattr(ha.standby, name) == tap

        ha.fail_primary()
        assert ha.active is ha.standby
        for name, tap in taps.items():
            assert getattr(ha, name) == tap
            assert getattr(ha.active, name) == tap
        ha.request_migration(["/f"], "j1")
        cluster.run()
        # The standby's deliveries reach the tap set before the failover.
        assert deliveries and all(kind == "migrate" for _, kind in deliveries)
