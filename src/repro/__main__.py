"""Command-line entry point: reproduce the paper's experiments.

Usage::

    python -m repro list
    python -m repro run table1 fig6 --out results/ --seed 0
    python -m repro all --out results/
    python -m repro trace swim-ignem --out results/ --num-jobs 40
    python -m repro scale --nodes 10000 --jobs 100000
    python -m repro serve --policy heat --requests 1200
    python -m repro chaos --seeds 10 --elasticity
    python -m repro dst --runs 25 --seed 0
    python -m repro dst --replay tests/dst/corpus
    python -m repro heal --out results/

Every subcommand shares the ``--out``/``--seed`` pair (one parent
parser).  ``trace`` is the one way to trace a run: it traces and
schema-checks the SWIM runs behind an experiment.

The ``scale`` and ``serve`` flags set fields of
:class:`~repro.workloads.ScaleConfig` and
:class:`~repro.workloads.ServeConfig`; a flag left out keeps the
dataclass default.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .dst.harness import SABOTAGE_MODES
from .experiments.report import available_experiments, run_experiments


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduce the tables and figures of 'Ignem: Upward Migration "
            "of Cold Data in Big Data File Systems' (ICDCS 2018)."
        ),
    )
    # Shared parent: every subcommand that produces files takes the same
    # --out/--seed pair.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="results", help="output directory")
    common.add_argument("--seed", type=int, default=0, help="master RNG seed")

    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser(
        "run", parents=[common], help="run selected experiments"
    )
    run.add_argument("experiments", nargs="+", metavar="EXPERIMENT")

    sub.add_parser("all", parents=[common], help="run every experiment")

    trace = sub.add_parser(
        "trace",
        parents=[common],
        help="run one experiment's SWIM workload with tracing enabled",
        description=(
            "Run the SWIM workload behind EXPERIMENT with structured "
            "tracing and the metrics registry enabled, write one JSONL "
            "trace plus one metrics snapshot per mode into --out, and "
            "validate every trace against the shipped schema.  Exits 1 "
            "if any trace fails validation.  Load the JSONL in "
            "chrome://tracing or Perfetto (after TraceReader.to_chrome)."
        ),
    )
    trace.add_argument("experiment", metavar="EXPERIMENT")
    trace.add_argument(
        "--num-jobs",
        type=int,
        default=40,
        help="SWIM jobs per traced run (short by default; paper uses 200)",
    )
    trace.add_argument(
        "--sim-events",
        action="store_true",
        help="also trace kernel event dispatch (very verbose)",
    )

    # Workload subcommands: each flag's dest is a config field, and a
    # flag left out is absent from the namespace (SUPPRESS), so the
    # config dataclass stays the only place a default lives.
    scale = sub.add_parser(
        "scale",
        parents=[common],
        argument_default=argparse.SUPPRESS,
        help="replay a Google-trace-shaped workload at cluster scale",
        description=(
            "Drive synthetic Google-trace rows through a full simulated "
            "cluster: one input file, migrate call, read wave, and evict "
            "call per job (see repro.workloads.scale).  Writes scale.json "
            "and scale.txt under --out and prints the replay summary.  "
            "The default shape (10k nodes, 100k jobs) is the kernel's "
            "headline stress run; it finishes in minutes on one core."
        ),
    )
    scale.add_argument("--nodes", dest="num_nodes", type=int, help="cluster size")
    scale.add_argument(
        "--jobs", dest="num_jobs", type=int, help="trace rows to replay"
    )
    scale.add_argument(
        "--interarrival",
        dest="mean_interarrival",
        type=float,
        help="mean job interarrival (seconds)",
    )
    scale.add_argument(
        "--max-blocks",
        dest="max_blocks_per_job",
        type=int,
        help="cap on blocks per job input file (bounds the lognormal tail)",
    )
    scale.add_argument(
        "--no-ignem",
        dest="ignem",
        action="store_false",
        help="replay the plain-HDFS baseline (no migrate/evict calls)",
    )

    serve = sub.add_parser(
        "serve",
        parents=[common],
        argument_default=argparse.SUPPRESS,
        help="interactive request serving with latency SLOs",
        description=(
            "Replay a seeded multi-tenant request stream (Zipfian object "
            "popularity, diurnal load, optional flash crowds) against the "
            "cluster under --policy none (plain HDFS), hint (oracle Ignem "
            "pin), or heat (hint-free popularity-driven migration).  Writes "
            "serve.json and serve.txt under --out and prints the SLO "
            "summary (p50/p99/p999 read latency)."
        ),
    )
    serve.add_argument("--nodes", dest="num_nodes", type=int, help="cluster size")
    serve.add_argument(
        "--objects", dest="num_objects", type=int, help="serving objects"
    )
    serve.add_argument(
        "--requests", dest="num_requests", type=int, help="requests to replay"
    )
    serve.add_argument(
        "--rps", dest="base_rps", type=float, help="mean request rate"
    )
    serve.add_argument(
        "--zipf", dest="zipf_s", type=float, help="popularity skew exponent"
    )
    serve.add_argument(
        "--tenants", dest="num_tenants", type=int, help="request tenants"
    )
    serve.add_argument(
        "--diurnal-amplitude", type=float, help="load-curve swing in [0, 1]"
    )
    serve.add_argument(
        "--diurnal-period", type=float, help="load-curve period (seconds)"
    )
    serve.add_argument(
        "--flash-crowds", type=int, help="flash-crowd spikes to inject"
    )
    serve.add_argument(
        "--policy",
        choices=("none", "hint", "heat"),
        help="migration policy: none | hint (oracle) | heat (learned)",
    )
    serve.add_argument(
        "--hint-objects", type=int, help="objects the hint policy pins"
    )
    serve.add_argument("--batch-jobs", type=int, help="mixed-mode SWIM jobs")

    chaos = sub.add_parser(
        "chaos",
        parents=[common],
        help="sweep seeded fault schedules over the SWIM workload",
        description=(
            "Judge N SWIM scenarios on the paper testbed, seed --seed + i "
            "driving both the workload and a random fault schedule (node "
            "crashes, master failovers, slow disks, message loss), with "
            "the full DST oracle suite (`repro dst`).  A failing seed is "
            "shrunk to a minimal reproducer under --out.  Exits 1 on any "
            "violation."
        ),
    )
    chaos.add_argument("--seeds", type=int, default=10, help="number of seeds")
    chaos.add_argument(
        "--num-jobs", type=int, default=40, help="SWIM jobs per seed"
    )
    chaos.add_argument(
        "--elasticity",
        action="store_true",
        help=(
            "also draw kill/join/decommission events into every schedule "
            "(exercises self-healing replication)"
        ),
    )

    dst = sub.add_parser(
        "dst",
        parents=[common],
        help="deterministic simulation testing: fuzz, shrink, replay",
        description=(
            "Generate seeded random scenarios (cluster config x workload "
            "mix x fault schedule), run each against the real system with "
            "a differential reference model of the Ignem master plus "
            "end-of-run invariant oracles, and on failure shrink the "
            "scenario to a minimal reproducer under --out.  With --replay, "
            "re-judge saved corpus scenarios instead.  Exits 1 on any "
            "violation."
        ),
    )
    dst.add_argument(
        "--runs", type=int, default=25, help="scenarios to generate"
    )
    dst.add_argument(
        "--replay",
        metavar="PATH",
        nargs="+",
        default=None,
        help="replay saved scenario JSON files (or directories of them)",
    )
    dst.add_argument(
        "--sabotage",
        default=None,
        choices=SABOTAGE_MODES,
        help="plant a bug in the live system (harness self-test)",
    )
    dst.add_argument(
        "--elasticity",
        action="store_true",
        help="generate kill/join/decommission faults in fuzzed scenarios",
    )
    dst.add_argument(
        "--interactive",
        action="store_true",
        help=(
            "mix interactive serve traffic (Zipfian reads, heat-driven "
            "migration) into fuzzed scenarios"
        ),
    )
    dst.add_argument(
        "--no-shrink",
        action="store_true",
        help="keep the first failing scenario as-is",
    )
    dst.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the dst.* metrics-registry snapshot to FILE",
    )

    heal = sub.add_parser(
        "heal",
        parents=[common],
        help="demo self-healing replication under kill/join/decommission",
        description=(
            "Run the SWIM workload while a scripted elasticity schedule "
            "kills a node mid-flight, joins a fresh one, and decommissions "
            "a third.  The replication monitor repairs under-replicated "
            "blocks over pipelined copy chains; the run ends with the "
            "DST oracles' verdict (`repro dst`).  Writes heal.json and "
            "heal.txt under --out.  Exits 1 on any violation."
        ),
    )
    heal.add_argument(
        "--num-jobs", type=int, default=40, help="SWIM jobs to run"
    )
    heal.add_argument(
        "--disable-repair",
        action="store_true",
        help=(
            "contrast mode: turn the replication monitor off and show the "
            "replication oracles convicting the permanent under-replication"
        ),
    )

    real = sub.add_parser(
        "real",
        parents=[common],
        help="boot a real asyncio mini-cluster and run serve+migrate",
        description=(
            "Run master, NameNode, and N DataNodes as asyncio TCP services "
            "on localhost, wired by the same protocol messages the "
            "simulator exchanges.  Writes pipelined block replicas, serves "
            "a Zipf read workload cold, migrates the hot files to RAM, "
            "serves again, and prints per-phase latency/SLO stats.  Writes "
            "real.json and real.txt under --out.  Exits 1 on any lost "
            "block or protocol error."
        ),
    )
    real.add_argument(
        "--nodes", type=int, default=3, help="DataNode services to boot (>= 3)"
    )
    real.add_argument(
        "--files", type=int, default=4, help="files to write and serve"
    )
    real.add_argument(
        "--reads", type=int, default=40, help="reads per serve phase"
    )
    return parser


def _write_report(out: str, name: str, payload: dict, text: str) -> None:
    """Write ``<name>.json``/``<name>.txt`` under ``out`` and print the
    report."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{name}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    (out_dir / f"{name}.txt").write_text(text + "\n")
    print(text)
    print(f"\nresults written to {out}/{name}.json")


def _config_fields(args) -> dict:
    """The config fields a workload subcommand was given: ``--seed``
    plus every flag on the command line."""
    return {
        name: value
        for name, value in vars(args).items()
        if name not in ("command", "out")
    }


def run_scale_command(args) -> int:
    from .workloads.scale import ScaleConfig, format_scale_result, run_scale_replay

    result = run_scale_replay(ScaleConfig(**_config_fields(args)))
    _write_report(args.out, "scale", result.to_dict(), format_scale_result(result))
    return 0


def run_serve_command(args) -> int:
    from .workloads.serve import ServeConfig, format_serve_result, run_serve

    result = run_serve(ServeConfig(**_config_fields(args)))
    _write_report(args.out, "serve", result.to_dict(), format_serve_result(result))
    return 0


def run_chaos(args) -> int:
    from .dst import DstRunner, swim_scenario

    runner = DstRunner(seed=args.seed)
    report = runner.fuzz(
        args.seeds,
        generate=lambda index: swim_scenario(
            args.seed + index, args.num_jobs, args.elasticity
        ),
    )
    runner.write_artifact(report, Path(args.out))
    print(report.format())
    return 0 if report.ok else 1


def run_dst(args) -> int:
    from .dst import DstRunner, corpus_paths

    runner = DstRunner(
        seed=args.seed,
        sabotage=args.sabotage,
        elasticity=args.elasticity,
        interactive=args.interactive,
    )
    if args.replay:
        paths = []
        for entry in args.replay:
            path = Path(entry)
            paths.extend(corpus_paths(path) if path.is_dir() else [path])
        report = runner.replay(paths)
    else:
        report = runner.fuzz(args.runs, shrink=not args.no_shrink)
        runner.write_artifact(report, Path(args.out))
    print(report.format())
    if args.metrics_out:
        snapshot_path = Path(args.metrics_out)
        snapshot_path.parent.mkdir(parents=True, exist_ok=True)
        snapshot_path.write_text(
            json.dumps(runner.registry.snapshot(), indent=2, sort_keys=True)
            + "\n"
        )
        print(f"metrics snapshot written to {snapshot_path}")
    return 0 if report.ok else 1


def run_heal(args) -> int:
    from .faults.heal import format_heal_result, heal_payload, run_heal_demo

    result = run_heal_demo(
        seed=args.seed,
        num_jobs=args.num_jobs,
        disable_repair=args.disable_repair,
    )
    _write_report(args.out, "heal", heal_payload(result), format_heal_result(result))
    return 0 if result.ok else 1


def run_real(args) -> int:
    from .transport.real import run_real_demo

    try:
        result = run_real_demo(
            nodes=args.nodes,
            files=args.files,
            reads=args.reads,
            seed=args.seed,
        )
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    _write_report(args.out, "real", result.to_dict(), result.summary())
    return 0 if result.ok else 1


def run_trace(args) -> int:
    from .experiments.traced import run_traced, traceable_experiments

    try:
        results = run_traced(
            args.experiment,
            out_dir=args.out,
            seed=args.seed,
            num_jobs=args.num_jobs,
            sim_events=args.sim_events,
        )
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        print(
            f"traceable experiments: {', '.join(traceable_experiments())}",
            file=sys.stderr,
        )
        return 2
    ok = True
    for result in results:
        print(result.format())
        for message in result.schema_errors:
            print(f"  {message}", file=sys.stderr)
        ok = ok and result.ok
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print("experiments:")
        for name in available_experiments():
            print(f"  {name}")
        return 0
    if args.command == "scale":
        return run_scale_command(args)
    if args.command == "serve":
        return run_serve_command(args)
    if args.command == "chaos":
        return run_chaos(args)
    if args.command == "trace":
        return run_trace(args)
    if args.command == "dst":
        return run_dst(args)
    if args.command == "heal":
        return run_heal(args)
    if args.command == "real":
        return run_real(args)

    names = None if args.command == "all" else args.experiments
    try:
        results = run_experiments(names, out_dir=args.out, seed=args.seed)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    for name, text in results.items():
        print(f"\n=== {name} ===")
        print(text)
    print(f"\nresults written to {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
