"""Run the benchmark many times, each in a fresh process, and summarise.

    python3 perfbench/sweep.py                           # all workloads, seeds 0-9
    python3 perfbench/sweep.py --workload real --seeds 5 --trace 1
    python3 perfbench/sweep.py --tree ../parent --tree . --out pairs.json

Runs go round-robin: for each seed, every workload; for each workload,
every tree, alternating which tree runs first from one seed to the
next.  For each tree, workload and metric the sweep prints the median,
the quartiles and the spread (interquartile distance over the median)
beside the metric's bound from ``BENCHMARK.json``.  With two trees it
also compares them pair by pair: the second tree gains on a metric when
it wins at least nine tenths of the pairs and the medians differ by
more than the first tree's interquartile distance, and it regresses
when its median is worse by more than the bound.  ``--out`` writes
every value, with the date, Python version, platform and ``nproc``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from summary import quartiles, spread

ROOT = Path(__file__).resolve().parents[1]
#: A run may take this long before the sweep gives up on it.
RUN_TIMEOUT_S = 600


def run_once(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One run of ``tree``'s benchmark, as long as its ``BENCHMARK.json``
    says; the run's final JSON line."""
    command = [
        sys.executable,
        "perfbench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(trace),
    ]
    done = subprocess.run(
        command, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{tree} {workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def wins(first: List[float], second: List[float], better: str) -> int:
    """Pairs in which ``second`` beats ``first``; ties count for neither."""
    if better == "lower":
        return sum(b < a for a, b in zip(first, second))
    return sum(b > a for a, b in zip(first, second))


def compare(first: List[float], second: List[float], better: str, bound) -> str:
    q1, median_a, q3 = quartiles(first)
    median_b = quartiles(second)[1]
    won = wins(first, second, better)
    gap = median_b - median_a if better == "higher" else median_a - median_b
    verdict = "gain" if won >= 0.9 * len(first) and gap > q3 - q1 else "no gain"
    if bound is not None and -gap > bound * abs(median_a):
        verdict = "REGRESSION"
    return f"won {won}/{len(first)}  {median_a:.6g} -> {median_b:.6g}  {verdict}"


def _summary(series: List[float]) -> dict:
    q1, median, q3 = quartiles(series)
    return {"median": median, "q1": q1, "q3": q3, "values": series}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tree", action="append", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    workloads = args.workload or names
    trees = [tree.resolve() for tree in (args.tree or [ROOT])]
    declared = spec["per_layer" if args.trace else "end_to_end"]

    # values[tree][workload][metric] -> one value per seed
    values: Dict[str, Dict[str, Dict[str, List[float]]]] = {
        str(tree): {workload: {} for workload in workloads} for tree in trees
    }
    for seed in range(args.seeds):
        for workload in workloads:
            order = trees if seed % 2 == 0 else trees[::-1]
            for tree in order:
                report = run_once(tree, workload, seed, args.trace)
                if not report["correct"] or report["failed"]:
                    raise RuntimeError(f"{tree} {workload} seed {seed}: {report}")
                for name, metric in report["metrics"].items():
                    values[str(tree)][workload].setdefault(name, []).append(metric["value"])
                print(f"seed {seed} {workload} {tree.name or tree}: done", file=sys.stderr)

    for tree in trees:
        print(f"== {tree}")
        for workload in workloads:
            for metric in declared:
                series = values[str(tree)][workload][metric["name"]]
                q1, median, q3 = quartiles(series)
                bound = metric.get("bound")
                share = spread(series) if median else 0.0
                flag = "" if bound is None else f"  bound {bound}" + (
                    "  ok" if share < bound / 3 else "  WIDE"
                )
                print(
                    f"{workload:<6} {metric['name']:<28} median {median:<12.6g}"
                    f" q1 {q1:<12.6g} q3 {q3:<12.6g} spread {share:.4f}{flag}"
                )
    if len(trees) == 2:
        first, second = (str(tree) for tree in trees)
        print(f"== {trees[1]} against {trees[0]}")
        for workload in workloads:
            for metric in declared:
                name = metric["name"]
                verdict = compare(
                    values[first][workload][name],
                    values[second][workload][name],
                    metric["better"],
                    metric.get("bound"),
                )
                print(f"{workload:<6} {name:<28} {verdict}")

    if args.out is not None:
        document = {
            "measured": {
                "date": datetime.date.today().isoformat(),
                "python": platform.python_version(),
                "platform": platform.platform(),
                "nproc": len(os.sched_getaffinity(0)),
            },
            "settings": {
                "seeds": [0, args.seeds - 1],
                "seconds": spec["run_seconds"],
                "trace": args.trace,
            },
            "results": {
                str(tree): {
                    workload: {name: _summary(series) for name, series in metrics.items()}
                    for workload, metrics in values[str(tree)].items()
                }
                for tree in trees
            },
        }
        if len(trees) == 1:
            document["results"] = document["results"][str(trees[0])]
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
