"""Reference model unit tests: priority spec + synthetic record replays.

Each replay case hand-builds the two inputs the differential checker
sees in production — the command-boundary delivery log and the
collector's migration records — and asserts exactly which violations
the worker simulation raises.
"""

from repro.core.config import IgnemConfig
from repro.dst import DifferentialChecker, reference_priority
from repro.dst.model import DeliveredItem
from repro.metrics import MigrationRecord
from repro.storage import MB

import pytest

NODE = "node0"


class TestReferencePriority:
    def test_smaller_job_migrates_first(self):
        small = reference_priority("smallest-job-first", 10.0, 5.0, 0)
        big = reference_priority("smallest-job-first", 20.0, 1.0, 0)
        assert small < big

    def test_size_ties_break_by_submission_time(self):
        early = reference_priority("smallest-job-first", 10.0, 1.0, 0)
        late = reference_priority("smallest-job-first", 10.0, 2.0, 0)
        assert early < late

    def test_within_a_job_tail_first(self):
        tail = reference_priority("smallest-job-first", 10.0, 1.0, 9)
        head = reference_priority("smallest-job-first", 10.0, 1.0, 0)
        assert tail < head

    def test_fifo_ignores_job_size(self):
        early_big = reference_priority("fifo", 100.0, 1.0, 0)
        late_small = reference_priority("fifo", 1.0, 2.0, 0)
        assert early_big < late_small

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            reference_priority("round-robin", 1.0, 1.0, 0)


def item(time, job, block, *, size=64 * MB, submitted=0.0, hint=0, seq=0):
    return DeliveredItem(
        time=time,
        node=NODE,
        job_id=job,
        block_id=block,
        nbytes=size,
        priority=reference_priority(
            "smallest-job-first", size, submitted, hint
        ),
        seq=seq,
    )


def span(t_start, dur, job, block, queue_wait, outcome="completed"):
    """A completed migration: bytes moved from ``t_start`` for ``dur``."""
    return MigrationRecord(
        job_id=job,
        block_id=block,
        node=NODE,
        nbytes=64 * MB,
        enqueued_at=t_start,
        start=t_start,
        end=t_start + dur,
        outcome=outcome,
        tier="mem",
        queue_wait=queue_wait,
    )


def instant(t, job, block, queue_wait, outcome):
    """A non-migrating pop (skipped/cancelled): starts and ends at ``t``."""
    return span(t, 0.0, job, block, queue_wait, outcome)


def replay(delivered, migrations, purges=()):
    checker = DifferentialChecker(IgnemConfig())
    checker.delivered.extend(delivered)
    return checker.replay(migrations, [], list(purges))


class TestCleanReplays:
    def test_priority_order_with_busy_worker(self):
        # A arrives alone and occupies the worker; B and C queue behind
        # it and must drain smallest-job-first (C before B).
        delivered = [
            item(1.0, "jA", "blkA", size=64 * MB, seq=0),
            item(1.5, "jB", "blkB", size=256 * MB, submitted=0.5, seq=1),
            item(1.5, "jC", "blkC", size=32 * MB, submitted=1.0, seq=2),
        ]
        events = [
            span(1.0, 2.0, "jA", "blkA", 0.0),
            span(3.0, 1.0, "jC", "blkC", 1.5),
            span(4.0, 1.0, "jB", "blkB", 2.5),
        ]
        assert replay(delivered, events) == []

    def test_idle_worker_takes_first_item_in_command_order(self):
        # PriorityStore.put_nowait hands items[0] straight to the parked
        # getter, bypassing priority: the big block migrating first is
        # correct behavior, not an ordering bug.
        delivered = [
            item(1.0, "jBig", "blkBig", size=512 * MB, seq=0),
            item(1.0, "jSmall", "blkSmall", size=16 * MB, seq=1),
        ]
        events = [
            span(1.0, 2.0, "jBig", "blkBig", 0.0),
            span(3.0, 1.0, "jSmall", "blkSmall", 2.0),
        ]
        assert replay(delivered, events) == []

    def test_redelivery_of_resident_block_is_dropped_silently(self):
        # blk1 migrates for job1; a later delivery for job2 finds it
        # resident and must vanish without a pop.
        delivered = [
            item(1.0, "job1", "blk1", seq=0),
            item(5.0, "job2", "blk1", submitted=2.0, seq=1),
        ]
        events = [span(1.0, 1.0, "job1", "blk1", 0.0)]
        assert replay(delivered, events) == []

    def test_purge_clears_the_queue(self):
        # B is queued behind A when the purge (crash) hits: the model
        # must not demand a pop for it.
        delivered = [
            item(1.0, "jA", "blkA", seq=0),
            item(1.2, "jB", "blkB", seq=1),
        ]
        events = [span(1.0, 2.0, "jA", "blkA", 0.0)]
        assert replay(delivered, events, purges=[(1.5, NODE)]) == []

    def test_non_migrating_pop_frees_worker_immediately(self):
        delivered = [
            item(1.0, "jA", "blkA", seq=0),
            item(1.0, "jB", "blkB", size=128 * MB, seq=1),
        ]
        events = [
            instant(1.0, "jA", "blkA", 0.0, "skipped"),
            span(1.0, 1.0, "jB", "blkB", 0.0),
        ]
        assert replay(delivered, events) == []


class TestViolationDetection:
    def test_wrong_order_is_flagged_exactly_once(self):
        # B (small) should migrate before C (big), but the slave served
        # C first.  The model resyncs after the first mismatch, so one
        # product bug yields one violation, not a cascade.
        delivered = [
            item(1.0, "jA", "blkA", size=64 * MB, seq=0),
            item(1.5, "jB", "blkB", size=32 * MB, seq=1),
            item(1.5, "jC", "blkC", size=256 * MB, seq=2),
        ]
        events = [
            span(1.0, 2.0, "jA", "blkA", 0.0),
            span(3.0, 1.0, "jC", "blkC", 1.5),
            span(4.0, 1.0, "jB", "blkB", 2.5),
        ]
        violations = replay(delivered, events)
        assert len(violations) == 1
        assert "[order]" in violations[0]
        assert "jB/blkB" in violations[0]

    def test_unserved_item_with_idle_worker_is_work_conservation(self):
        delivered = [item(1.0, "jA", "blkA", seq=0)]
        violations = replay(delivered, [])
        assert len(violations) == 1
        assert "[work-conservation]" in violations[0]

    def test_pop_with_nothing_queued_is_phantom(self):
        events = [span(1.0, 1.0, "ghost", "blk", 0.0)]
        violations = replay([], events)
        assert len(violations) == 1
        assert "[phantom-pop]" in violations[0]

    def test_misreported_queue_wait_is_flagged(self):
        delivered = [
            item(1.0, "jA", "blkA", seq=0),
            item(1.0, "jB", "blkB", size=128 * MB, seq=1),
        ]
        events = [
            span(1.0, 1.0, "jA", "blkA", 0.0),
            # B actually waited 1.0s but reports 0.25s.
            span(2.0, 1.0, "jB", "blkB", 0.25),
        ]
        violations = replay(delivered, events)
        assert len(violations) == 1
        assert "[queue-wait]" in violations[0]

    def test_completing_a_resident_block_twice_is_flagged(self):
        delivered = [
            item(1.0, "job1", "blk1", seq=0),
            item(1.0, "job2", "blk1", size=128 * MB, seq=1),
        ]
        events = [
            span(1.0, 1.0, "job1", "blk1", 0.0),
            span(2.0, 1.0, "job2", "blk1", 1.0),
        ]
        violations = replay(delivered, events)
        assert any("[double-migration]" in v for v in violations)


class TestCommandBoundary:
    def test_second_replica_migration_is_flagged(self):
        checker = DifferentialChecker(IgnemConfig(replicas_to_migrate=1))
        checker._targets[("j1", "blk1")] = {"node0"}

        class _Item:
            job_id = "j1"
            block_id = "blk1"
            job_input_bytes = 64 * MB
            job_submitted_at = 0.0
            order_hint = 0
            seq = 0
            dst_tier = "mem"

            class block:
                nbytes = 64 * MB

        class _Command:
            items = [_Item()]

        class _Env:
            now = 1.0

        class _Slave:
            env = _Env()

            @staticmethod
            def reference_list(block_id):
                return {"j1"}

        checker.on_delivery("node1", "migrate", _Command(), _Slave())
        assert any("[one-replica]" in v for v in checker.violations)


class TestCheckedConfig:
    """The checker reads the config the cluster runs, and refuses one
    its reference slave does not model."""

    def test_reads_policy_and_replica_bound_from_the_config(self):
        checker = DifferentialChecker(
            IgnemConfig(policy="fifo", replicas_to_migrate=2)
        )
        assert (checker.policy, checker.replicas_to_migrate) == ("fifo", 2)

    @pytest.mark.parametrize(
        "config",
        [
            IgnemConfig(migration_concurrency=2),
            IgnemConfig(reverse_within_job=False),
        ],
    )
    def test_unmodeled_config_rejected(self, config):
        with pytest.raises(ValueError):
            DifferentialChecker(config)
