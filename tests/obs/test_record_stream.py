"""One record stream: trace events and usage timelines derived from the
collector's records.

Every ``mapreduce.job``, ``mapreduce.task``, ``ignem.migration`` and
``ignem.eviction`` trace event must match the next record of its kind,
in order, on every field it carries; the slaves' usage timelines are
views over their node's memory samples.
"""

import pytest

from repro import (
    IgnemConfig,
    JobSpec,
    ObservabilityConfig,
    build_paper_testbed,
)
from repro.experiments.swim_runs import prepare_swim_cluster
from repro.obs import TraceReader
from repro.storage import GB, MB

_US = 1e6


def _job_event(record):
    return {
        "ts": record.submitted_at,
        "dur": record.end - record.submitted_at,
        "lane": "jobs",
        "args": {
            "job": record.job_id,
            "name": record.name,
            "maps": record.num_maps,
            "reduces": record.num_reduces,
            "input_bytes": round(record.input_bytes),
            "failed": record.failed,
        },
    }


def _task_event(record):
    return {
        "ts": record.start,
        "dur": record.end - record.start,
        "lane": record.node,
        "args": {"task": record.task_id, "job": record.job_id, "kind": record.kind},
    }


def _migration_event(record):
    completed = record.outcome == "completed"
    return {
        "ts": record.start if completed else record.end,
        "dur": record.end - record.start if completed else None,
        "lane": record.node,
        "args": {
            "block": record.block_id,
            "job": record.job_id,
            "bytes": round(record.nbytes),
            "tier": record.tier,
            "outcome": record.outcome,
            "queue_wait": round(record.queue_wait, 6),
        },
    }


def _eviction_event(record):
    return {
        "ts": record.time,
        "dur": None,
        "lane": record.node,
        "args": {
            "block": record.block_id,
            "bytes": round(record.nbytes),
            "reason": record.reason,
            "tier": record.tier,
        },
    }


def _traced(reader, name):
    """The trace's ``name`` events as comparable dicts, in file order."""
    lanes = reader.lanes()
    return [
        {
            "ts": event["ts"] / _US,
            "dur": event["dur"] / _US if "dur" in event else None,
            "lane": lanes[event["tid"]],
            "args": event["args"],
        }
        for event in reader.events
        if event.get("name") == name
    ]


def _assert_matches(reader, name, records, derive):
    """The dump stable-sorts events on ts, so the next record of a kind
    is the next one in report order stably sorted on its event's ts."""
    expected = sorted((derive(record) for record in records), key=lambda e: e["ts"])
    traced = _traced(reader, name)
    assert len(traced) == len(expected), name
    for got, want in zip(traced, expected):
        assert got["args"] == want["args"], name
        assert got["lane"] == want["lane"], name
        assert got["ts"] == pytest.approx(want["ts"], abs=1e-9), name
        if want["dur"] is None:
            assert got["dur"] is None, name
        else:
            assert got["dur"] == pytest.approx(want["dur"], abs=1e-9), name


def _assert_trace_matches_records(cluster, trace_path):
    reader = TraceReader.load(trace_path)
    collector = cluster.collector
    _assert_matches(reader, "mapreduce.job", collector.jobs, _job_event)
    _assert_matches(reader, "mapreduce.task", collector.tasks, _task_event)
    _assert_matches(
        reader, "ignem.migration", collector.migrations, _migration_event
    )
    _assert_matches(reader, "ignem.eviction", collector.evictions, _eviction_event)


def _tracing(trace_path):
    """Tracing on from construction, the trace dumped after each run."""
    return ObservabilityConfig(trace_path=str(trace_path))


def _three_tier_cluster(**overrides):
    cluster = build_paper_testbed(
        seed=0, num_nodes=3, replication=1, tier_preset="mem-ssd-hdd", **overrides
    )
    cluster.enable_ignem(
        IgnemConfig(
            buffer_capacity=256 * MB,
            tier_buffer_capacities=(("mem", 256 * MB), ("ssd", 1 * GB)),
        )
    )
    return cluster


class TestTraceMatchesRecords:
    def test_swim_run(self, tmp_path):
        trace_path = tmp_path / "swim.jsonl"
        cluster, _, specs, arrivals = prepare_swim_cluster(
            "ignem",
            seed=3,
            num_jobs=6,
            observability=ObservabilityConfig(trace_path=str(trace_path)),
        )
        done = cluster.engine.run_workload(specs, arrivals, implicit_eviction=True)
        cluster.run(until=done)
        collector = cluster.collector
        assert collector.jobs and collector.tasks
        assert collector.completed_migrations() and collector.evictions
        _assert_trace_matches_records(cluster, trace_path)

    def test_three_tier_run(self, tmp_path):
        trace_path = tmp_path / "three-tier.jsonl"
        cluster = _three_tier_cluster(observability=_tracing(trace_path))
        master = cluster.ignem_master
        cluster.client.create_file("/warm", 256 * MB)
        cluster.client.create_file("/hot", 128 * MB)
        cluster.rm.register_job("j-ssd")
        cluster.rm.register_job("j-mem")
        master.request_migration(["/warm"], "j-ssd", dst_tier="ssd")
        master.request_migration(["/hot"], "j-mem", dst_tier="mem")
        cluster.run(until=30.0)
        master.request_eviction(["/warm"], "j-ssd")
        master.request_eviction(["/hot"], "j-mem")
        # The second run's dump holds both runs' events.
        cluster.run()
        collector = cluster.collector
        assert {m.tier for m in collector.completed_migrations()} == {"mem", "ssd"}
        assert {e.tier for e in collector.evictions} == {"mem", "ssd"}
        _assert_trace_matches_records(cluster, trace_path)

    def test_slave_crash_mid_migration(self, tmp_path):
        trace_path = tmp_path / "crash.jsonl"
        cluster = build_paper_testbed(
            seed=0,
            num_nodes=3,
            replication=1,
            ignem=True,
            observability=_tracing(trace_path),
        )
        cluster.client.create_file("/f", 512 * MB, preferred_node="node0")
        cluster.rm.register_job("j")
        cluster.ignem_master.request_migration(["/f"], "j")
        cluster.run(until=2.0)  # three blocks landed, the fourth is moving
        cluster.fail_node("node0")
        cluster.run(until=10.0)
        cluster.restart_node("node0")
        cluster.run()
        collector = cluster.collector
        outcomes = [m.outcome for m in collector.migrations]
        assert outcomes.count("completed") == 3 and "cancelled" in outcomes
        assert [e.reason for e in collector.evictions] == ["failure"] * 3
        _assert_trace_matches_records(cluster, trace_path)

    def test_job_submitted_before_tracing_starts_is_traced(self, tmp_path):
        cluster = build_paper_testbed(seed=0, num_nodes=4, ignem=True)
        cluster.client.create_file("/in", 256 * MB)
        job = cluster.engine.submit_job(
            JobSpec("early", ("/in",), shuffle_bytes=64 * MB, num_reduces=2)
        )
        trace_path = tmp_path / "early.jsonl"
        cluster.obs.activate()
        cluster.obs.attach(cluster)
        cluster.run()
        cluster.obs.tracer.dump(trace_path)
        assert job.finished_at is not None
        reader = TraceReader.load(trace_path)
        (span,) = _traced(reader, "mapreduce.job")
        assert span["args"]["job"] == job.job_id
        tasks = _traced(reader, "mapreduce.task")
        assert sorted(t["args"]["kind"] for t in tasks) == ["map"] * 4 + [
            "reduce"
        ] * 2
        _assert_trace_matches_records(cluster, trace_path)


class TestFailedJobRecord:
    def test_failed_job_is_recorded_and_traced_as_failed(self, tmp_path):
        trace_path = tmp_path / "failed.jsonl"
        cluster = build_paper_testbed(
            seed=0, num_nodes=4, replication=1, observability=_tracing(trace_path)
        )
        cluster.client.create_file("/in", 128 * MB)
        (holder,) = {
            node
            for block in cluster.namenode.file_blocks("/in")
            for node in cluster.namenode.get_block_locations(block.block_id)
        }
        cluster.fail_node(holder)
        job = cluster.engine.submit_job(JobSpec("j", ("/in",)))
        cluster.run()
        assert job.failed is True
        (record,) = cluster.collector.jobs
        assert record.failed is True
        (span,) = _traced(TraceReader.load(trace_path), "mapreduce.job")
        assert span["args"]["failed"] is True


class TestTimelineViews:
    def test_every_destination_tier_starts_empty_at_creation(self):
        cluster = _three_tier_cluster()
        cluster.client.create_file("/warm", 256 * MB)
        cluster.rm.register_job("j")
        cluster.ignem_master.request_migration(["/warm"], "j", dst_tier="ssd")
        cluster.run()
        for name, slave in sorted(cluster.ignem_slaves.items()):
            timelines = slave.tier_usage_timeline
            assert list(timelines) == ["mem", "ssd"], name
            for tier, timeline in timelines.items():
                assert timeline[0] == (slave.created_at, 0.0), (name, tier)
            assert slave.usage_timeline[0] == (slave.created_at, 0.0)
        ssd_points = sum(
            len(slave.tier_usage_timeline["ssd"]) - 1
            for slave in cluster.ignem_slaves.values()
        )
        assert ssd_points == 4  # four blocks migrated into ssd

    def test_tier_timeline_carries_that_tiers_bytes(self):
        cluster = _three_tier_cluster()
        master = cluster.ignem_master
        cluster.client.create_file("/warm", 128 * MB, preferred_node="node0")
        cluster.client.create_file("/hot", 64 * MB, preferred_node="node0")
        cluster.rm.register_job("j-ssd")
        cluster.rm.register_job("j-mem")
        master.request_migration(["/warm"], "j-ssd", dst_tier="ssd")
        master.request_migration(["/hot"], "j-mem", dst_tier="mem")
        cluster.run()
        slave = cluster.ignem_slaves["node0"]
        timelines = slave.tier_usage_timeline
        assert max(b for _, b in timelines["ssd"]) == pytest.approx(128 * MB)
        assert max(b for _, b in timelines["mem"]) == pytest.approx(64 * MB)
        assert max(b for _, b in slave.usage_timeline) == pytest.approx(192 * MB)

    def test_joined_node_timelines_start_at_join_time(self):
        cluster = build_paper_testbed(seed=0, num_nodes=2, ignem=True)
        cluster.run(until=7.5)
        name = cluster.add_datanode().name
        slave = cluster.ignem_slaves[name]
        assert slave.created_at == 7.5
        assert slave.usage_timeline == [(7.5, 0.0)]
        assert slave.tier_usage_timeline == {"mem": [(7.5, 0.0)]}

        cluster.client.create_file(
            "/late", 64 * MB, replication=1, preferred_node=name
        )
        cluster.rm.register_job("j")
        cluster.ignem_master.request_migration(["/late"], "j")
        cluster.run(until=20.0)
        timeline = slave.usage_timeline
        assert timeline[0] == (7.5, 0.0)
        assert timeline[-1][1] == pytest.approx(64 * MB)
        assert all(time >= 7.5 for time, _ in timeline)

    def test_views_are_rebuilt_from_the_collector(self):
        cluster = build_paper_testbed(
            seed=0, num_nodes=1, replication=1, ignem=True
        )
        cluster.client.create_file("/f", 64 * MB)
        cluster.rm.register_job("j")
        cluster.ignem_master.request_migration(["/f"], "j")
        cluster.run()
        slave = cluster.ignem_slaves["node0"]
        slave.usage_timeline.append((99.0, 1.0))  # a copy: no effect
        assert len(slave.usage_timeline) == 2
        (sample,) = cluster.collector.memory_samples
        assert slave.usage_timeline[1] == (sample.time, sample.migrated_bytes)
        assert slave.tier_usage_timeline["mem"][1] == (
            sample.time,
            sample.tier_bytes,
        )
