"""Tracer, TraceReader, and schema-checker unit tests."""

import json

import pytest

from repro.obs import ALL_CATEGORIES, ObservabilityConfig, TraceReader, Tracer
from repro.obs.schema import validate_lines, validate_trace


class FakeClock:
    def __init__(self):
        self.now = 0.0


class TestTracer:
    def test_sim_category_is_opt_in(self):
        assert "sim" in ALL_CATEGORIES
        assert ObservabilityConfig().sim_events is False

    def test_span_and_instant_emission(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        clock.now = 1.5
        tracer.instant("cache.insert", "storage", lane="node0/cache")
        clock.now = 2.0
        tracer.complete("net.transfer", "net", start=1.0, lane="network")
        events = [json.loads(line) for line in tracer.lines()]
        named = {event["name"]: event for event in events}
        # Metadata first, then ts-sorted data events.
        assert events[0]["ph"] == "M"
        assert named["net.transfer"]["ts"] == pytest.approx(1.0e6)
        assert named["net.transfer"]["dur"] == pytest.approx(1.0e6)
        assert named["cache.insert"]["ts"] == pytest.approx(1.5e6)

    def test_lines_are_ts_sorted_regardless_of_emission_order(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        clock.now = 5.0
        tracer.instant("cache.evict", "storage")
        # A span that *finishes* later but *started* earlier must sort first.
        clock.now = 6.0
        tracer.complete("dfs.read", "dfs", start=1.0)
        data = [
            json.loads(line)
            for line in tracer.lines()
            if json.loads(line)["ph"] != "M"
        ]
        assert [event["name"] for event in data] == [
            "dfs.read",
            "cache.evict",
        ]

    def test_negative_duration_is_clamped(self):
        clock = FakeClock()
        tracer = Tracer(clock)
        tracer.complete("dfs.read", "dfs", start=2.0, end=1.0)
        (event,) = [
            json.loads(line)
            for line in tracer.lines()
            if json.loads(line)["ph"] == "X"
        ]
        assert event["dur"] == 0.0

    def test_dump_reload_round_trip(self, tmp_path):
        clock = FakeClock()
        tracer = Tracer(clock)
        clock.now = 1.0
        tracer.instant("cache.insert", "storage", lane="node0/cache")
        tracer.complete(
            "net.transfer", "net", start=0.5, lane="network",
            args={"bytes": 64},
        )
        path = tracer.dump(tmp_path / "t.jsonl")

        reader = TraceReader.load(path)
        assert len(reader.filter(category="net")) == 1
        assert reader.durations("net.transfer") == [pytest.approx(0.5)]
        assert set(reader.lanes().values()) == {"node0/cache", "network"}

        chrome = reader.to_chrome(tmp_path / "t.chrome.json")
        wrapped = json.loads(chrome.read_text())
        assert len(wrapped["traceEvents"]) == len(reader.events)


class TestSchemaChecker:
    def _line(self, **overrides):
        event = {
            "name": "dfs.read",
            "ph": "X",
            "cat": "dfs",
            "ts": 1.0,
            "dur": 2.0,
            "pid": 0,
            "tid": 0,
        }
        event.update(overrides)
        return json.dumps(event)

    def test_valid_trace_passes(self, tmp_path):
        clock = FakeClock()
        tracer = Tracer(clock)
        tracer.instant("scheduler.launch", "scheduler")
        path = tracer.dump(tmp_path / "ok.jsonl")
        assert validate_trace(path) == []

    def test_unknown_event_type_fails(self):
        errors = validate_lines([self._line(name="made.up")])
        assert any("unknown event type" in error for error in errors)

    def test_category_mismatch_fails(self):
        errors = validate_lines([self._line(cat="net")])
        assert any("expected" in error for error in errors)

    def test_non_monotonic_timestamps_fail(self):
        errors = validate_lines(
            [self._line(ts=5.0), self._line(ts=4.0)]
        )
        assert any("non-monotonic" in error for error in errors)

    def test_missing_keys_and_bad_json_fail(self):
        errors = validate_lines(['{"name": "dfs.read"}', "not json"])
        assert len(errors) == 2

    def test_span_without_duration_fails(self):
        errors = validate_lines([self._line(dur=None)])
        assert any("bad dur" in error for error in errors)
