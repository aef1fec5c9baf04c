"""One benchmark run of one workload.

    python3 perfbench/run.py --workload swim --seed 0 --seconds 15 --trace 0

Runs the workload's pass of seeded members (see ``workloads.py``) again
and again, at least once, for as long as another pass is expected to
end within ``--seconds``, checks the outputs, and prints every metric
``BENCHMARK.json`` declares, by name and with its unit.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with host times scaled to
quiet-host seconds by the loop in ``calibration.py``.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer
metrics, whose host times are unscaled; with ``--trace-dir DIR`` it
also writes the first traced pass's spans to
``DIR/<workload>.trace.json`` in Chrome ``trace_event`` format.

Exit status: 0 when every check passed, 1 when one failed, 2 when the
program's sources are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import calibration
from layers import Tracer

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "BENCHMARK.json"
#: Table I's Ignem mean job duration; the reference swim member must match it.
TABLE1 = ROOT / "results" / "table1.json"
#: Spans written per Chrome trace file; the rest are counted, not kept.
KEPT_SPANS = 200_000


@dataclass
class Pass:
    """One pass over a workload's members."""

    outcomes: list
    watches: list
    #: Per member, the factor from host to quiet-host seconds, taken
    #: just before it ran.
    scales: list
    tracer: Optional[Tracer] = None


def run_pass(workload, seeds: List[int], tracer=None) -> Pass:
    done = Pass([], [], [], tracer)
    for index, member_seed in enumerate(seeds):
        gc.collect()
        done.scales.append(calibration.scale())
        if tracer is None:
            outcome, watch = workload.measure(member_seed)
        else:
            with tracer.installed(), tracer.window(index):
                outcome, watch = workload.measure(member_seed)
        done.outcomes.append(outcome)
        done.watches.append(watch)
    return done


def run(workload, seed: int, seconds: float, trace: bool, keep_spans: int):
    """Rounds of one untraced pass, followed by a traced one when
    ``trace``: at least one round, and another only while it is expected
    to end within ``seconds``, going by the last round's duration."""
    seeds = workload.member_seeds(seed)
    untraced: List[Pass] = []
    traced: List[Pass] = []
    deadline = perf_counter() + seconds
    while True:
        started = perf_counter()
        untraced.append(run_pass(workload, seeds))
        if trace:
            tracer = Tracer(keep_spans=0 if traced else keep_spans)
            traced.append(run_pass(workload, seeds, tracer))
        now = perf_counter()
        if now + (now - started) > deadline:
            return untraced, traced


def check(workload, untraced: List[Pass], traced: List[Pass]) -> List[str]:
    """Every problem found with the outputs; empty when they are correct."""
    problems = []
    reference = untraced[0].outcomes
    labelled = [(f"untraced pass {i}", p) for i, p in enumerate(untraced)]
    labelled += [(f"traced pass {i}", p) for i, p in enumerate(traced)]
    for label, one_pass in labelled:
        for index, outcome in enumerate(one_pass.outcomes):
            if outcome.failed:
                problems.append(
                    f"{label}, member {index}: {outcome.failed} of "
                    f"{outcome.attempted} operations failed"
                )
            if outcome.outputs != reference[index].outputs:
                problems.append(f"{label}, member {index}: outputs differ from pass 0")
    if workload.simulated:
        for index, one_pass in enumerate(traced[1:], start=1):
            first, other = traced[0].tracer, one_pass.tracer
            if (other.calls, other.events) != (first.calls, first.events):
                problems.append(f"traced pass {index}: counts differ from traced pass 0")
    if workload.name == "swim":
        expected = json.loads(TABLE1.read_text())["ignem"]["seconds"]
        got = reference[0].outputs["mean_job_s"]
        if got != expected:
            problems.append(
                f"reference mean job duration {got!r} is not Table I's {expected!r}"
            )
    return problems


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def member_medians(passes: List[Pass], value) -> List[float]:
    """For each member, the median over ``passes`` of
    ``value(outcome, stopwatch, scale)``."""
    return [
        statistics.median(
            value(p.outcomes[index], p.watches[index], p.scales[index]) for p in passes
        )
        for index in range(len(passes[0].outcomes))
    ]


def end_to_end_metrics(untraced: List[Pass], simulated: bool) -> Dict[str, float]:
    """Host times in quiet-host seconds; simulated latencies as they are."""
    reference = untraced[0].outcomes[0]

    def latency(outcome, _watch, scale):
        return outcome.latency_ms if simulated else scale * outcome.latency_ms

    return {
        "run_s": sum(member_medians(untraced, lambda o, w, s: s * w.run_s)),
        "setup_s": sum(member_medians(untraced, lambda o, w, s: s * w.setup_s)),
        "peak_rss_mb": peak_rss_mb(),
        "ram_read_share": reference.ram_reads / reference.reads,
        "latency_ms": statistics.fmean(member_medians(untraced, latency)),
    }


def per_layer_metrics(untraced: List[Pass], traced: List[Pass]) -> Dict[str, float]:
    """Host times as measured, unscaled, beside the calibration loop's."""
    passes = [
        p.tracer.metrics(ram_reads=sum(o.ram_reads for o in p.outcomes)) for p in traced
    ]
    metrics = {name: statistics.median(v[name] for v in passes) for name in passes[0]}
    metrics["latency_tail_ms"] = statistics.fmean(
        member_medians(untraced, lambda o, w, s: o.tail_ms)
    )
    for name in ("real.cold_read_p50_ms", "real.cold_read_p99_ms"):
        metrics[name] = statistics.fmean(
            member_medians(untraced, lambda o, w, s, n=name: o.extra.get(n, 0.0))
        )
    metrics["host.loop_ms"] = 1000.0 * calibration.QUIET_S / statistics.median(
        s for p in untraced for s in p.scales
    )
    metrics["host.unscaled_run_s"] = sum(member_medians(untraced, lambda o, w, s: w.run_s))
    metrics["trace.overhead_ratio"] = sum(
        member_medians(traced, lambda o, w, s: s * w.run_s)
    ) / sum(member_medians(untraced, lambda o, w, s: s * w.run_s))
    return metrics


def parse_args(argv, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.trace_dir is not None and not args.trace:
        parser.error("--trace-dir needs --trace 1")
    return args


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    args = parse_args(argv, spec)
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"perfbench: the program's sources are not at {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    keep = KEPT_SPANS if trace and args.trace_dir is not None else 0
    untraced, traced = run(workload, args.seed, args.seconds, trace, keep)
    problems = check(workload, untraced, traced)
    if trace:
        values = per_layer_metrics(untraced, traced)
    else:
        values = end_to_end_metrics(untraced, workload.simulated)

    declared = spec["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics not matching BENCHMARK.json: {sorted(set(values) ^ set(units))}"
        )
    if keep:
        args.trace_dir.mkdir(parents=True, exist_ok=True)
        traced[0].tracer.write_chrome(
            args.trace_dir / f"{workload.name}.trace.json", workload.name
        )

    print(
        f"workload {workload.name}  seed {args.seed}  passes {len(untraced)}"
        f" untraced, {len(traced)} traced  members/pass {workload.members}"
    )
    for name, unit in units.items():
        print(f"  {name:<28} {values[name]:>14.6g} {unit}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    everything = [o for p in untraced + traced for o in p.outcomes]
    report = {
        "correct": not problems,
        "attempted": sum(o.attempted for o in everything),
        "failed": sum(o.failed for o in everything),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(report))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
