"""Unit checks of the benchmark harness itself.

    python3 perfbench/selftest.py

Covers the self-time arithmetic, the percentile rule, the order
statistics, the member seeds, when a run stops, the determinism check,
the scaling of host times, and that every metric the harness emits is declared in
``BENCHMARK.json`` under a valid name and unit.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import summary  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    """Stands in for ``perf_counter``, returning the given instants."""

    def __init__(self, *instants: float):
        self.instants = list(instants)

    def __call__(self) -> float:
        return self.instants.pop(0)


class SelfTimeTest(unittest.TestCase):
    def traced(self, clock: FakeClock, steps) -> layers.Tracer:
        tracer = layers.Tracer()
        original = layers.perf_counter
        layers.perf_counter = clock
        try:
            with tracer.window(0):
                spans = {}
                for action, name, layer in steps:
                    if action == "enter":
                        spans[name] = tracer.enter(name, layer)
                    else:
                        tracer.exit(spans[name])
        finally:
            layers.perf_counter = original
        return tracer

    def test_nested_spans_subtract_their_children(self):
        tracer = self.traced(
            FakeClock(0, 1, 2, 5, 7, 10),
            [
                ("enter", "run", "sim"),
                ("enter", "transfer", "storage"),
                ("exit", "transfer", "storage"),
                ("exit", "run", "sim"),
            ],
        )
        self.assertEqual(tracer.self_s["sim"], 3)
        self.assertEqual(tracer.self_s["storage"], 3)
        self.assertEqual(tracer.self_s[layers.UNATTRIBUTED], 4)
        self.assertEqual(sum(tracer.self_s.values()), 10)
        self.assertEqual(tracer.inclusive_s["run"], 6)

    def test_overlapping_async_spans_charge_each_instant_once(self):
        tracer = self.traced(
            FakeClock(0, 1, 2, 3, 4, 6),
            [
                ("enter", "request", "transport"),
                ("enter", "lookup", "dfs"),
                ("exit", "request", "transport"),
                ("exit", "lookup", "dfs"),
            ],
        )
        self.assertEqual(tracer.self_s["transport"], 1)
        self.assertEqual(tracer.self_s["dfs"], 2)
        self.assertEqual(sum(tracer.self_s.values()), 6)

    def test_patched_restores_the_original(self):
        owner = SimpleNamespace(call=lambda: "original")
        with layers.patched(owner, "call", lambda fn: lambda: "wrapped " + fn()):
            self.assertEqual(owner.call(), "wrapped original")
        self.assertEqual(owner.call(), "original")


class OrderStatisticsTest(unittest.TestCase):
    def test_tail_is_the_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(summary.tail_quantile(1000), 0.99)
        self.assertEqual(summary.tail_quantile(999), 0.9)
        self.assertEqual(summary.tail_quantile(100_000), 0.999)
        self.assertEqual(summary.tail_quantile(200), 0.9)
        self.assertEqual(summary.tail_quantile(5), 0.5)

    def test_serve_tail_follows_the_rule(self):
        # serve reports the program's own p999.
        self.assertEqual(summary.tail_quantile(workloads.SERVE_REQUESTS), 0.999)

    def test_percentile_is_nearest_rank(self):
        samples = list(range(1, 1001))
        self.assertEqual(summary.percentile(samples, 0.5), 500)
        self.assertEqual(summary.percentile(samples, 0.99), 990)
        self.assertEqual(summary.percentile([7.0], 0.999), 7.0)

    def test_median_and_quartiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        q1, median, q3 = summary.quartiles(values)
        self.assertEqual([q1, median, q3], statistics.quantiles(values, n=4))
        self.assertEqual(median, statistics.median(values))
        self.assertEqual(summary.quartiles([2.0]), (2.0, 2.0, 2.0))
        self.assertAlmostEqual(summary.spread([1.0, 2.0, 3.0, 4.0]), 2.5 / 2.5)


def outcome(outputs, **extra) -> workloads.Outcome:
    return workloads.Outcome(
        attempted=10,
        failed=0,
        reads=4,
        ram_reads=1,
        latency_ms=2.0,
        tail_ms=3.0,
        outputs=outputs,
        extra=extra,
    )


def stopwatch(setup_s: float, run_s: float) -> SimpleNamespace:
    return SimpleNamespace(setup_s=setup_s, run_s=run_s)


class MemberSeedsTest(unittest.TestCase):
    def test_the_reference_member_is_the_same_for_every_seed(self):
        swim = workloads.WORKLOADS["swim"]
        self.assertEqual(swim.member_seeds(0), list(range(10)))
        self.assertEqual(swim.member_seeds(3), [0] + list(range(28, 37)))

    def test_seeded_members_never_repeat_across_seeds(self):
        for workload in workloads.WORKLOADS.values():
            seeded = [s for seed in range(20) for s in workload.member_seeds(seed)[1:]]
            self.assertEqual(len(seeded), len(set(seeded)), workload.name)
            self.assertNotIn(workloads.REFERENCE_SEED, seeded)


class RoundsTest(unittest.TestCase):
    workload = SimpleNamespace(member_seeds=lambda seed: [0], measure=lambda seed: (None, None))

    def rounds(self, seconds: float, clock: FakeClock) -> int:
        original = run.perf_counter
        run.perf_counter = clock
        try:
            untraced, _traced = run.run(self.workload, 0, seconds, False, 0)
        finally:
            run.perf_counter = original
        return len(untraced)

    def test_no_round_starts_that_would_end_past_the_deadline(self):
        # 4 s rounds in a 10 s budget: a third round would end at 12 s.
        self.assertEqual(self.rounds(10, FakeClock(0, 0, 4, 4, 8)), 2)

    def test_the_first_round_runs_however_long_it_takes(self):
        self.assertEqual(self.rounds(10, FakeClock(0, 0, 30)), 1)


class CheckTest(unittest.TestCase):
    workload = SimpleNamespace(name="serve", simulated=True)

    def test_identical_outputs_pass(self):
        passes = [run.Pass([outcome({"p99": 0.8})], [stopwatch(1, 2)], [1.0]) for _ in range(2)]
        self.assertEqual(run.check(self.workload, passes, []), [])

    def test_differing_outputs_are_rejected(self):
        first = run.Pass([outcome({"p99": 0.8})], [stopwatch(1, 2)], [1.0])
        second = run.Pass([outcome({"p99": 0.8000001})], [stopwatch(1, 2)], [1.0])
        problems = run.check(self.workload, [first, second], [])
        self.assertEqual(len(problems), 1)
        self.assertIn("outputs differ", problems[0])

    def test_failed_operations_are_rejected(self):
        failing = outcome({})
        failing.failed = 1
        problems = run.check(self.workload, [run.Pass([failing], [stopwatch(1, 2)], [1.0])], [])
        self.assertIn("1 of 10 operations failed", problems[0])

    def test_ram_read_share_comes_from_the_reference_member(self):
        seeded = outcome({})
        seeded.ram_reads = 4
        one_pass = run.Pass(
            [outcome({}), seeded], [stopwatch(1, 2), stopwatch(1, 2)], [1.0, 1.0]
        )
        metrics = run.end_to_end_metrics([one_pass], simulated=True)
        self.assertEqual(metrics["ram_read_share"], 0.25)


class ScaleTest(unittest.TestCase):
    def test_host_times_are_scaled_and_simulated_latencies_are_not(self):
        # One member over three passes, each with its own host speed.
        passes = [
            run.Pass([outcome({})], [stopwatch(1.0, 2.0)], [scale])
            for scale in (0.5, 0.7, 0.6)
        ]
        simulated = run.end_to_end_metrics(passes, simulated=True)
        self.assertAlmostEqual(simulated["run_s"], 1.2)
        self.assertAlmostEqual(simulated["setup_s"], 0.6)
        self.assertEqual(simulated["latency_ms"], 2.0)
        wall = run.end_to_end_metrics(passes, simulated=False)
        self.assertAlmostEqual(wall["latency_ms"], 1.2)

    def test_the_quiet_loop_time_scales_by_one(self):
        original = calibration.loop_s
        calibration.loop_s = lambda: calibration.QUIET_S
        try:
            self.assertEqual(calibration.scale(), 1.0)
        finally:
            calibration.loop_s = original


class DeclaredMetricsTest(unittest.TestCase):
    def passes(self, tracer=None):
        return [
            run.Pass(
                [outcome({}, **{"real.cold_read_p50_ms": 1.0})],
                [stopwatch(1.0, 2.0)],
                [1.0],
                tracer,
            )
        ]

    def assert_declared(self, emitted, section):
        declared = {metric["name"]: metric for metric in SPEC[section]}
        for name in emitted:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(set(emitted), set(declared))

    def test_end_to_end_metrics_are_declared(self):
        self.assert_declared(run.end_to_end_metrics(self.passes(), True), "end_to_end")

    def test_per_layer_metrics_are_declared(self):
        emitted = run.per_layer_metrics(self.passes(), self.passes(layers.Tracer()))
        self.assert_declared(emitted, "per_layer")

    def test_benchmark_json_is_well_formed(self):
        self.assertEqual(
            set(SPEC),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertEqual(list(SPEC["paths"]), ["perfbench"])
        self.assertEqual(SPEC["command"], ["python3", "perfbench/run.py"])
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        for workload in SPEC["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for metric in SPEC["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
        for metric in SPEC["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertTrue(NAME.fullmatch(metric["name"]), metric["name"])
            self.assertTrue(UNIT.fullmatch(metric["unit"]), metric["unit"])
            self.assertIn(metric["better"], ("lower", "higher"))
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
