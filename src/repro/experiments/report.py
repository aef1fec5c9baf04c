"""Batch experiment runner with file outputs.

Runs any subset of the paper's experiments and writes, per experiment:

* ``<name>.txt`` — the paper-style formatted rows;
* ``<name>.json`` — machine-readable key numbers;
* for the figure experiments, ``<name>_series.csv`` — the plottable
  series (CDF points, sweep curves) so figures can be regenerated with
  any plotting tool.

A run of every experiment also judges the paper's claims against the
results (:mod:`repro.experiments.claims`) and writes ``claims.txt`` and
``claims.json``.
"""

from __future__ import annotations

import csv
import gc
import json
import pathlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..storage.device import GB, MB
from . import (
    ablation_priority,
    fig5_size_bins,
    fig6_block_read_cdf,
    fig7_memory_footprint,
    fig8_wordcount_sweep,
    fig9_hive_study,
    run_block_read_study,
    run_leadtime_study,
    run_utilization_study,
    table1_job_duration,
    table2_task_duration,
    table3_sort,
)
from . import ablations
from .claims import evaluate_claims

PathLike = Union[str, pathlib.Path]
#: What a runner returns: its formatted text and its in-process result.
Outcome = Tuple[str, Any]


def _write(out_dir: pathlib.Path, name: str, text: str, data: Dict) -> None:
    (out_dir / f"{name}.txt").write_text(text + "\n")
    (out_dir / f"{name}.json").write_text(json.dumps(data, indent=2) + "\n")


def _write_series(
    out_dir: pathlib.Path, name: str, header: Sequence[str], rows: Sequence[Sequence]
) -> None:
    with open(out_dir / f"{name}_series.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _comparison_payload(table) -> Dict:
    return {
        row.mode: {"seconds": row.value, "speedup_vs_hdfs": row.speedup_vs_hdfs}
        for row in table.rows
    }


# -- experiment runners keyed by CLI name ----------------------------------------


def _run_fig1_fig2(out_dir: pathlib.Path, seed: int) -> Outcome:
    study = run_block_read_study(seed=seed)
    _write(
        out_dir,
        "fig1_fig2",
        study.format(),
        {
            "ram_vs_hdd_reads": study.read_ratio("hdd"),
            "ram_vs_ssd_reads": study.read_ratio("ssd"),
            "ram_vs_hdd_mappers": study.mapper_ratio("hdd"),
        },
    )
    rows = []
    for medium in ("hdd", "ssd", "ram"):
        values, fractions = study.mapper_cdf(medium)
        rows.extend((medium, v, f) for v, f in zip(values, fractions))
    _write_series(out_dir, "fig2", ["medium", "mapper_seconds", "cdf"], rows)
    return study.format(), study


def _run_fig3(out_dir: pathlib.Path, seed: int) -> Outcome:
    study = run_leadtime_study(seed=seed)
    _write(
        out_dir,
        "fig3",
        study.format(),
        {
            "sufficient_fraction": study.sufficient_fraction,
            "mean_lead_time": study.analysis.mean_lead_time,
            "median_lead_time": study.analysis.median_lead_time,
        },
    )
    ratios, fractions = study.cdf()
    step = max(1, len(ratios) // 500)
    _write_series(
        out_dir,
        "fig3",
        ["read_over_lead_ratio", "cdf"],
        list(zip(ratios, fractions))[::step],
    )
    return study.format(), study


def _run_fig4(out_dir: pathlib.Path, seed: int) -> Outcome:
    study = run_utilization_study(seed=seed)
    _write(
        out_dir,
        "fig4",
        study.format(),
        {
            "overall_mean": study.overall_mean,
            "mean_timeline_peak": study.mean_timeline.peak,
        },
    )
    rows = list(zip(study.mean_timeline.times, study.mean_timeline.utilization))
    _write_series(out_dir, "fig4", ["time_s", "mean_utilization"], rows)
    return study.format(), study


def _run_table1(out_dir: pathlib.Path, seed: int) -> Outcome:
    table = table1_job_duration(seed=seed)
    _write(out_dir, "table1", table.format(), _comparison_payload(table))
    return table.format(), table


def _run_table2(out_dir: pathlib.Path, seed: int) -> Outcome:
    table = table2_task_duration(seed=seed)
    _write(out_dir, "table2", table.format(), _comparison_payload(table))
    return table.format(), table


def _run_fig5(out_dir: pathlib.Path, seed: int) -> Outcome:
    bins = fig5_size_bins(seed=seed)
    lines = ["Fig 5 — reduction in mean job duration by size bin"]
    payload = {}
    rows = []
    for entry in bins:
        lines.append(
            f"{entry.bin_name:<7} n={entry.num_jobs:<4} "
            f"ignem={entry.ignem_reduction:6.1%} ram={entry.ram_reduction:6.1%}"
        )
        payload[entry.bin_name] = {
            "jobs": entry.num_jobs,
            "ignem_reduction": entry.ignem_reduction,
            "ram_reduction": entry.ram_reduction,
        }
        rows.append(
            (entry.bin_name, entry.num_jobs, entry.ignem_reduction, entry.ram_reduction)
        )
    text = "\n".join(lines)
    _write(out_dir, "fig5", text, payload)
    _write_series(out_dir, "fig5", ["bin", "jobs", "ignem", "ram"], rows)
    return text, bins


def _run_fig6(out_dir: pathlib.Path, seed: int) -> Outcome:
    result = fig6_block_read_cdf(seed=seed)
    text = (
        "Fig 6 — block read durations\n"
        f"mean reduction: {result.mean_reduction:.1%}; "
        f"migrated fraction: {result.migrated_fraction:.1%}"
    )
    _write(
        out_dir,
        "fig6",
        text,
        {
            "mean_reduction": result.mean_reduction,
            "migrated_fraction": result.migrated_fraction,
        },
    )
    rows = []
    for label, series in (
        ("hdfs", result.hdfs_cdf()),
        ("ignem", result.ignem_cdf()),
    ):
        values, fractions = series
        step = max(1, len(values) // 500)
        rows.extend(
            (label, v, f) for v, f in list(zip(values, fractions))[::step]
        )
    _write_series(out_dir, "fig6", ["config", "read_seconds", "cdf"], rows)
    return text, result


def _run_fig7(out_dir: pathlib.Path, seed: int) -> Outcome:
    result = fig7_memory_footprint(seed=seed)
    text = (
        "Fig 7 — migrated-memory footprint\n"
        f"Ignem {result.ignem_mean_bytes / MB:.0f}MB vs hypothetical "
        f"{result.hypothetical_mean_bytes / MB:.0f}MB "
        f"({result.footprint_ratio:.1f}x lower)"
    )
    _write(
        out_dir,
        "fig7",
        text,
        {
            "ignem_mean_bytes": result.ignem_mean_bytes,
            "hypothetical_mean_bytes": result.hypothetical_mean_bytes,
            "footprint_ratio": result.footprint_ratio,
        },
    )
    return text, result


def _run_ablation_priority(out_dir: pathlib.Path, seed: int) -> Outcome:
    result = ablation_priority(seed=seed)
    text = (
        "Ablation IV-C5 — priority policy\n"
        f"priority {result.priority_speedup:.1%} vs fifo "
        f"{result.fifo_speedup:.1%}; benefit lost {result.benefit_lost:.0%}"
    )
    _write(
        out_dir,
        "ablation_priority",
        text,
        {
            "priority_speedup": result.priority_speedup,
            "fifo_speedup": result.fifo_speedup,
            "benefit_lost": result.benefit_lost,
        },
    )
    return text, result


def _run_table3(out_dir: pathlib.Path, seed: int) -> Outcome:
    table = table3_sort(seed=seed)
    _write(out_dir, "table3", table.format(), _comparison_payload(table))
    return table.format(), table


def _run_fig8(out_dir: pathlib.Path, seed: int) -> Outcome:
    sweep = fig8_wordcount_sweep(seed=seed)
    _write(
        out_dir,
        "fig8",
        sweep.format(),
        {
            "ignem_matches_ram_until_gb": sweep.ignem_matches_ram_until(),
            "plus10_beats_ignem_at_gb": sweep.plus10_beats_ignem_at(),
        },
    )
    rows = [
        (point.input_gb, point.variant, point.duration)
        for point in sweep.points
    ]
    _write_series(out_dir, "fig8", ["input_gb", "variant", "seconds"], rows)
    return sweep.format(), sweep


def _run_fig9(out_dir: pathlib.Path, seed: int) -> Outcome:
    study = fig9_hive_study(seed=seed)
    payload = {
        query.query_id: {
            "input_gb": query.input_bytes / GB,
            "durations": query.durations,
            "ignem_speedup": query.speedup("ignem"),
        }
        for query in study.queries
    }
    payload["mean_ignem_speedup"] = study.mean_ignem_speedup()
    payload["map_runtime_fraction"] = study.map_runtime_fraction
    _write(out_dir, "fig9", study.format(), payload)
    rows = [
        (q.query_id, q.input_bytes / GB, q.durations["hdfs"], q.durations["ignem"])
        for q in study.by_input_size()
    ]
    _write_series(
        out_dir, "fig9", ["query", "input_gb", "hdfs_s", "ignem_s"], rows
    )
    return study.format(), study


def _run_tier3(out_dir: pathlib.Path, seed: int) -> Outcome:
    from .tier3_demo import run_tier3_demo

    study = run_tier3_demo(seed=seed)
    payload = {
        run.mode: {
            "mean_job_seconds": run.mean_job_seconds,
            "migrations_completed": run.migrations_completed,
            "tier_peak_bytes": run.tier_peaks,
            "routed_requests": run.routed,
        }
        for run in study.runs
    }
    payload["pull_metrics"] = study.pull_metrics
    _write(out_dir, "tier3", study.format(), payload)
    return study.format(), study


def _run_serve(out_dir: pathlib.Path, seed: int) -> Outcome:
    from .serve_slo import serve_slo_study

    study = serve_slo_study(seed=seed)
    payload = {
        policy: result.to_dict() for policy, result in study.results.items()
    }
    payload["heat_beats_none"] = study.heat_beats_none()
    _write(out_dir, "serve", study.format(), payload)
    return study.format(), study


def _study(study: Callable[[int], Tuple[str, Dict]]):
    """A runner for an :mod:`~repro.experiments.ablations` study: writes
    ``<study name>.txt/.json``; the payload is the result."""

    def run(out_dir: pathlib.Path, seed: int) -> Outcome:
        text, payload = study(seed)
        _write(out_dir, study.__name__, text, payload)
        return text, payload

    return run


EXPERIMENTS: Dict[str, Callable[[pathlib.Path, int], Outcome]] = {
    "fig1": _run_fig1_fig2,
    "fig2": _run_fig1_fig2,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "table1": _run_table1,
    "table2": _run_table2,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "ablation-priority": _run_ablation_priority,
    "table3": _run_table3,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
    "tier3": _run_tier3,
    "serve": _run_serve,
    "ablation-do-not-harm": _study(ablations.ablation_do_not_harm),
    "ablation-implicit-eviction": _study(ablations.ablation_implicit_eviction),
    "ablation-migration-concurrency": _study(ablations.ablation_migration_concurrency),
    "ablation-replica-choice": _study(ablations.ablation_replica_choice),
    "ablation-reverse-order": _study(ablations.ablation_reverse_order),
    "extension-benefit-aware": _study(ablations.extension_benefit_aware),
    "extension-busy-throttle": _study(ablations.extension_busy_throttle),
    "extension-cluster-utilization": _study(ablations.extension_cluster_utilization),
    "extension-speculation": _study(ablations.extension_speculation),
}


def available_experiments() -> List[str]:
    return sorted(set(EXPERIMENTS))


def run_experiments(
    names: Optional[Sequence[str]] = None,
    out_dir: PathLike = "results",
    seed: int = 0,
) -> Dict[str, str]:
    """Run the named experiments (all by default); returns name -> text.

    A run of every experiment also writes the claims table, returned
    under ``"claims"``."""
    out_path = pathlib.Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    chosen = list(names) if names else available_experiments()
    for name in chosen:
        if name not in EXPERIMENTS:
            raise KeyError(
                f"unknown experiment {name!r}; choose from "
                f"{available_experiments()}"
            )

    texts: Dict[str, str] = {}
    results: Dict[str, Any] = {}
    ran: Dict[Callable, Any] = {}
    for name in chosen:
        runner = EXPERIMENTS[name]
        if runner not in ran:  # fig1/fig2 share one runner
            texts[name], ran[runner] = runner(out_path, seed)
            # A finished run's cluster is a web of reference cycles: free
            # it now, or the next runs' clusters pile up on top of it.
            gc.collect()
        results[name] = ran[runner]
    if not names:
        text, rows = evaluate_claims(results)
        _write(out_path, "claims", text, rows)
        texts["claims"] = text
    return texts
