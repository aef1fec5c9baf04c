"""The paper's claims, each one statistic of an experiment's result and
the band it must lie in.

``repro all`` evaluates every row against the results it just produced
and writes ``claims.txt``/``claims.json``; a tier-1 test checks the
committed rows against the bands here.  A row's statistic gets the
results of the experiments it names, in that order.  Bands come from
the shapes the paper reports, not from the simulated numbers: a claim
that holds only on seed 0's exact value would prove nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..metrics.stats import mean


@dataclass(frozen=True)
class Claim:
    """``stat`` of the ``experiments``' results must satisfy every bound given."""

    id: str
    experiments: Tuple[str, ...]
    paper: str
    stat: Callable[..., float]
    ge: Optional[float] = None
    gt: Optional[float] = None
    le: Optional[float] = None
    lt: Optional[float] = None

    def holds(self, value: float) -> bool:
        return (
            (self.ge is None or value >= self.ge)
            and (self.gt is None or value > self.gt)
            and (self.le is None or value <= self.le)
            and (self.lt is None or value < self.lt)
        )

    @property
    def band(self) -> str:
        """The band as text, e.g. ``x >= 0.05 and x <= 0.25``."""
        if self.ge is not None and self.ge == self.le:
            return f"x == {self.ge:g}"
        bounds = ((">=", self.ge), (">", self.gt), ("<=", self.le), ("<", self.lt))
        return " and ".join(f"x {op} {v:g}" for op, v in bounds if v is not None)


def near(value: float, rel: float = 0.0, abs: float = 0.0) -> Dict[str, float]:
    """The inclusive band ``value +- max(rel * value, abs)``."""
    tolerance = max(rel * value, abs)
    return {"ge": value - tolerance, "le": value + tolerance}


def _order(table) -> float:
    """Above 1 iff HDFS > Ignem > HDFS-Inputs-in-RAM."""
    return min(
        table.value("hdfs") / table.value("ignem"),
        table.value("ignem") / table.value("ram"),
    )


def _bin(bins, name: str):
    return next(entry for entry in bins if entry.bin_name == name)


def _server_peaks(study) -> List[float]:
    """Every server's peak utilization, ascending."""
    return sorted(t.peak for t in study.per_server.values())


def _fast_read_share(result) -> float:
    """Ignem reads under 1s, as a share of the reads served from RAM."""
    fast = sum(1 for v in result.ignem_durations if v < 1.0)
    return fast / len(result.ignem_durations) / result.migrated_fraction


def _largest(sweep, variant: str) -> float:
    return sweep.relative(sweep.sizes()[-1], variant)


def _smallest(sweep, variant: str) -> float:
    return sweep.relative(sweep.sizes()[0], variant)


def _mean_speedup(queries) -> float:
    return sum(query.speedup("ignem") for query in queries) / len(queries)


CLAIMS: Tuple[Claim, ...] = (
    # Table I: SWIM mean job duration.
    Claim("table1.order", ("table1",), "14.4 > 12.7 > 11.4 s", _order, gt=1),
    Claim("table1.ignem_speedup", ("table1",), "12%",
          lambda t: t.speedup("ignem"), ge=0.05, le=0.25),
    Claim("table1.ram_speedup", ("table1",), "21%",
          lambda t: t.speedup("ram"), ge=0.10, le=0.35),
    Claim("table1.share_of_ram_bound", ("table1",), "~60%",
          lambda t: t.fraction_of_upper_bound(), ge=0.3, le=0.8),
    Claim("table1.hdfs_seconds", ("table1",), "14.4 s",
          lambda t: t.value("hdfs"), ge=8, le=25),
    # Table II: SWIM mean mapper duration.
    Claim("table2.order", ("table2",), "6.44 > 4.03 > 0.28 s", _order, gt=1),
    Claim("table2.ignem_speedup", ("table2",), "38%",
          lambda t: t.speedup("ignem"), ge=0.25, le=0.60),
    Claim("table2.ram_speedup", ("table2",), "96%", lambda t: t.speedup("ram"), ge=0.85),
    Claim("table2.hdfs_seconds", ("table2",), "6.44 s",
          lambda t: t.value("hdfs"), **near(6.44, rel=0.4)),
    Claim("table2.ram_seconds", ("table2",), "0.28 s",
          lambda t: t.value("ram"), **near(0.28, rel=1.0)),
    Claim("table2.task_gain_over_job_gain", ("table2", "table1"), "38% vs 12%",
          lambda t2, t1: t2.speedup("ignem") - t1.speedup("ignem"), gt=0),
    # Table III: the 40GB sort.
    Claim("table3.order", ("table3",), "147 > 114 > 75 s", _order, gt=1),
    Claim("table3.ignem_speedup", ("table3",), "22%",
          lambda t: t.speedup("ignem"), ge=0.10, le=0.40),
    Claim("table3.ram_speedup", ("table3",), "49%",
          lambda t: t.speedup("ram"), ge=0.35, le=0.65),
    Claim("table3.hdfs_seconds", ("table3",), "147 s",
          lambda t: t.value("hdfs"), **near(147, rel=0.25)),
    Claim("table3.ram_seconds", ("table3",), "75 s",
          lambda t: t.value("ram"), **near(75, rel=0.30)),
    # Figs 1 and 2: block reads and mapper runtimes by medium.
    Claim("fig1.ram_vs_hdd_reads", ("fig1",), "~160x",
          lambda s: s.read_ratio("hdd"), ge=60, le=400),
    Claim("fig1.ram_vs_ssd_reads", ("fig1",), "~7x",
          lambda s: s.read_ratio("ssd"), ge=3, le=15),
    Claim("fig2.ram_vs_hdd_mappers", ("fig2",), "~23x",
          lambda s: s.mapper_ratio("hdd"), ge=8, le=60),
    Claim("fig2.mapper_gain_over_read_gain", ("fig2",), "23x vs 160x",
          lambda s: s.mapper_ratio("hdd") / s.read_ratio("hdd"), lt=1),
    # Figs 3 and 4: the Google trace.
    Claim("fig3.sufficient_lead_time", ("fig3",), "81%",
          lambda s: s.sufficient_fraction, **near(0.81, abs=0.03)),
    Claim("fig3.mean_lead_time", ("fig3",), "8.8 s",
          lambda s: s.analysis.mean_lead_time, **near(8.8, rel=0.15)),
    Claim("fig3.median_lead_time", ("fig3",), "1.8 s",
          lambda s: s.analysis.median_lead_time, **near(1.8, rel=0.15)),
    Claim("fig4.mean_utilization", ("fig4",), "~3.1%",
          lambda s: s.overall_mean, **near(0.031, abs=0.01)),
    Claim("fig4.peak_of_server_mean", ("fig4",), "<=5%",
          lambda s: s.mean_timeline.peak, le=0.08),
    Claim("fig4.single_server_burst", ("fig4",), "bursty servers",
          lambda s: max(t.peak for t in s.per_server.values()) / s.mean_timeline.peak,
          gt=3),
    Claim("fig4.server_peak_min", ("fig4",), "bursty servers",
          lambda s: _server_peaks(s)[0], gt=0.05, le=1),
    Claim("fig4.server_peak_median", ("fig4",), "bursty servers",
          lambda s: (p := _server_peaks(s))[len(p) // 2], gt=0.05, le=1),
    Claim("fig4.server_peak_max", ("fig4",), "bursty servers",
          lambda s: _server_peaks(s)[-1], gt=0.15, le=1),
    Claim("fig4.windows", ("fig4",), "24h, 5-min windows",
          lambda s: len(s.mean_timeline.utilization), ge=288, le=288),
    # Fig 5: SWIM reduction by input-size bin.
    Claim("fig5.bins", ("fig5",), "small/medium/large",
          lambda bins: float(sorted(e.bin_name for e in bins) == ["large", "medium", "small"]),
          ge=1, le=1),
    Claim("fig5.small_hdfs_seconds", ("fig5",), "under 14.4 s (T. I)",
          lambda bins: _bin(bins, "small").hdfs_mean, gt=0, lt=14.4),
    Claim("fig5.medium_hdfs_seconds", ("fig5",), "over 14.4 s (T. I)",
          lambda bins: _bin(bins, "medium").hdfs_mean, gt=14.4),
    Claim("fig5.large_hdfs_seconds", ("fig5",), "over 14.4 s (T. I)",
          lambda bins: _bin(bins, "large").hdfs_mean, gt=14.4),
    Claim("fig5.ignem_helps_every_bin", ("fig5",), "8.8/7.7/25%",
          lambda bins: min(entry.ignem_reduction for entry in bins), gt=0),
    Claim("fig5.large_over_small", ("fig5",), "25% vs 8.8%",
          lambda bins: _bin(bins, "large").ignem_reduction
          - _bin(bins, "small").ignem_reduction, gt=0),
    Claim("fig5.large_ram_reduction", ("fig5",), "~60%",
          lambda bins: _bin(bins, "large").ram_reduction, ge=0.4),
    Claim("fig5.small_ignem_near_ram", ("fig5",), "close to RAM",
          lambda bins: _bin(bins, "small").ignem_reduction
          / _bin(bins, "small").ram_reduction, ge=0.4),
    # Fig 6: SWIM block reads.
    Claim("fig6.mean_read_reduction", ("fig6",), "~40%",
          lambda r: r.mean_reduction, ge=0.25, le=0.65),
    Claim("fig6.migrated_fraction", ("fig6",), "~60%",
          lambda r: r.migrated_fraction, ge=0.45, le=0.75),
    Claim("fig6.hdfs_mean_read_seconds", ("fig6",), "~6.2 s (T. II)",
          lambda r: mean(r.hdfs_durations), **near(6.16, rel=0.4)),
    Claim("fig6.ignem_mean_read_seconds", ("fig6",), "~3.8 s (T. II)",
          lambda r: mean(r.ignem_durations), **near(3.75, rel=0.4)),
    Claim("fig6.fast_read_mass", ("fig6",), "migrated reads fast",
          _fast_read_share, ge=0.9),
    # Fig 7: migrated-memory footprint.
    Claim("fig7.footprint_ratio", ("fig7",), "2.6x",
          lambda r: r.footprint_ratio, ge=1.5),
    Claim("fig7.ignem_footprint", ("fig7",), "positive",
          lambda r: r.ignem_mean_bytes, gt=0),
    Claim("fig7.hypothetical_above_ignem", ("fig7",), "2.6x",
          lambda r: r.hypothetical_mean_bytes / r.ignem_mean_bytes, gt=1),
    Claim("fig7.ignem_samples", ("fig7",), "Fig 7a",
          lambda r: len(r.ignem_nonzero_samples), gt=0),
    Claim("fig7.hypothetical_samples", ("fig7",), "Fig 7b",
          lambda r: len(r.hypothetical_nonzero_samples), gt=0),
    # IV-C5: prioritization.
    Claim("ablation-priority.priority_speedup", ("ablation-priority",), "12%",
          lambda r: r.priority_speedup, gt=0),
    Claim("ablation-priority.fifo_speedup", ("ablation-priority",), "~10%",
          lambda r: r.fifo_speedup, gt=0),
    Claim("ablation-priority.priority_over_fifo", ("ablation-priority",), "2 points",
          lambda r: r.priority_mean / r.fifo_mean, le=1),
    Claim("ablation-priority.benefit_lost", ("ablation-priority",), "~15%",
          lambda r: r.benefit_lost, ge=0.0, le=0.6),
    # Fig 8: wordcount sweep and Ignem+10s.
    Claim("fig8.ignem_tracks_ram_until_gb", ("fig8",), "~2GB",
          lambda w: w.ignem_matches_ram_until(), ge=2.0),
    Claim("fig8.ignem_diverges_from_ram", ("fig8",), "decays past 2GB",
          lambda w: _largest(w, "ignem") - _largest(w, "ram"), gt=0.05),
    Claim("fig8.ignem_beats_hdfs", ("fig8",), "every size",
          lambda w: max(w.relative(size, "ignem") for size in w.sizes()), lt=1.0),
    Claim("fig8.plus10_at_smallest", ("fig8",), "~1.2 at 1GB",
          lambda w: _smallest(w, "ignem+10s"), gt=1.2),
    Claim("fig8.plus10_at_largest", ("fig8",), "beats HDFS",
          lambda w: _largest(w, "ignem+10s"), lt=1.0),
    Claim("fig8.plus10_overtakes_ignem_gb", ("fig8",), "~4GB",
          lambda w: w.plus10_beats_ignem_at() or 0.0, gt=0),
    Claim("fig8.ram_gain_grows", ("fig8",), "grows (IV-E)",
          lambda w: _largest(w, "ram") / _smallest(w, "ram"), lt=1),
    # Fig 9: Hive queries.
    Claim("fig9.every_query_gains", ("fig9",), "every query",
          lambda h: min(query.speedup("ignem") for query in h.queries), gt=0),
    Claim("fig9.best_speedup", ("fig9",), "34% (q3)",
          lambda h: h.best_query().speedup("ignem"), ge=0.2),
    Claim("fig9.mean_speedup", ("fig9",), "~20%",
          lambda h: h.mean_ignem_speedup(), ge=0.10, le=0.40),
    Claim("fig9.large_inputs_gain_less", ("fig9",), "q82/q25/q29",
          lambda h: _mean_speedup(h.by_input_size()[-3:])
          - _mean_speedup(h.by_input_size()[:3]), lt=0),
    Claim("fig9.map_runtime_share", ("fig9",), "~97%",
          lambda h: h.map_runtime_fraction, ge=0.85),
    # Ablations (Section III).
    Claim("ablation-do-not-harm.no_preemption", ("ablation-do-not-harm",), "none (III-A3)",
          lambda d: d["do-not-harm"]["preempted"], ge=0, le=0),
    Claim("ablation-do-not-harm.evict_for_newer_preempts", ("ablation-do-not-harm",),
          "some", lambda d: d["evict-for-newer"]["preempted"], gt=0),
    Claim("ablation-do-not-harm.never_worse", ("ablation-do-not-harm",), "never worse",
          lambda d: d["do-not-harm"]["mean_job"] / d["evict-for-newer"]["mean_job"],
          le=1.05),
    Claim("ablation-implicit-eviction.fires", ("ablation-implicit-eviction",), "on read (III-B2)",
          lambda d: d["implicit"]["implicit_evictions"], gt=0),
    Claim("ablation-implicit-eviction.off_when_explicit", ("ablation-implicit-eviction",),
          "none", lambda d: d["explicit-only"]["implicit_evictions"], ge=0, le=0),
    Claim("ablation-implicit-eviction.smaller_footprint", ("ablation-implicit-eviction",),
          "smaller (III-A4)", lambda d: d["implicit"]["mean_footprint"]
          / d["explicit-only"]["mean_footprint"], lt=1),
    Claim("ablation-implicit-eviction.no_slower", ("ablation-implicit-eviction",),
          "no slower", lambda d: d["implicit"]["mean_job"] / d["explicit-only"]["mean_job"],
          le=1.05),
    Claim("ablation-migration-concurrency.one_at_a_time",
          ("ablation-migration-concurrency",), "1 best (III-A1)",
          lambda d: d["1"] / d["4"], le=1.02),
    Claim("ablation-migration-concurrency.bounded_spread",
          ("ablation-migration-concurrency",), "bounded",
          lambda d: max(d.values()) / min(d.values()), lt=1.5),
    Claim("ablation-replica-choice.disk_bytes", ("ablation-replica-choice",), "more (III-A2)",
          lambda d: d["3"]["migrated_bytes"] / d["1"]["migrated_bytes"], gt=1.3),
    Claim("ablation-replica-choice.peak_memory", ("ablation-replica-choice",), "more (III-A2)",
          lambda d: d["3"]["peak_memory"] / d["1"]["peak_memory"], gt=1.3),
    Claim("ablation-replica-choice.no_job_win", ("ablation-replica-choice",), "no faster",
          lambda d: d["3"]["mean_job"] / d["1"]["mean_job"], ge=0.97),
    Claim("ablation-reverse-order.less_waste", ("ablation-reverse-order",), "less waste",
          lambda d: d["tail-first"]["wasted"] - d["scan-order"]["wasted"], le=0),
    Claim("ablation-reverse-order.no_slower", ("ablation-reverse-order",), "no slower",
          lambda d: d["tail-first"]["duration"] / d["scan-order"]["duration"], le=1.02),
    # Extensions (Sections IV-E and V).
    Claim("extension-benefit-aware.beat_hdfs", ("extension-benefit-aware",), "all beat HDFS",
          lambda d: max(v for k, v in d.items() if k != "hdfs") / d["hdfs"], lt=1),
    Claim("extension-benefit-aware.smallest_first_vs_fifo", ("extension-benefit-aware",),
          "no worse (IV-C5)", lambda d: d["smallest-job-first"] / d["fifo"], le=1.02),
    Claim("extension-benefit-aware.benefit_aware_vs_fifo", ("extension-benefit-aware",),
          "no worse (IV-E)", lambda d: d["benefit-aware"] / d["fifo"], le=1.02),
    Claim("extension-busy-throttle.migrates_less", ("extension-busy-throttle",), "less (V)",
          lambda d: d["throttle@4"]["migrated"] - d["work-conserving"]["migrated"], le=0),
    Claim("extension-busy-throttle.work_conserving_no_slower", ("extension-busy-throttle",),
          "no slower", lambda d: d["work-conserving"]["duration"] / d["throttle@4"]["duration"],
          le=1.05),
    Claim("extension-cluster-utilization.mean", ("extension-cluster-utilization",),
          "~3% (trace)", lambda d: d["mean"], lt=0.5),
    Claim("extension-cluster-utilization.bursty", ("extension-cluster-utilization",),
          "bursty (Fig 4)", lambda d: d["peak"] / d["mean"], gt=2),
    Claim("extension-speculation.rescues_hdfs", ("extension-speculation",), "faster",
          lambda d: d["hdfs+spec"]["duration"] / d["hdfs"]["duration"], lt=1),
    Claim("extension-speculation.speculates", ("extension-speculation",), "some",
          lambda d: d["hdfs+spec"]["attempts"], gt=0),
    Claim("extension-speculation.ignem_rescues_hdfs", ("extension-speculation",),
          "faster", lambda d: d["ignem"]["duration"] / d["hdfs"]["duration"], lt=1),
    Claim("extension-speculation.compose", ("extension-speculation",), "they compose",
          lambda d: d["ignem+spec"]["duration"]
          / min(d["hdfs+spec"]["duration"], d["ignem"]["duration"]), le=1.1),
)


def evaluate_claims(results: Mapping[str, Any]) -> Tuple[str, List[Dict]]:
    """Every claim against ``results`` (experiment name -> result):
    ``(text, rows)``."""
    rows = []
    for claim in CLAIMS:
        measured = claim.stat(*(results[name] for name in claim.experiments))
        rows.append(
            {
                "id": claim.id,
                "experiments": claim.experiments,
                "paper": claim.paper,
                "measured": measured,
                "band": claim.band,
                "holds": claim.holds(measured),
            }
        )
    held = sum(row["holds"] for row in rows)
    lines = [
        f"Paper claims — {held} of {len(rows)} hold",
        f"{'claim':<50} {'paper':<20} {'measured':>10}  {'band':<28} holds",
    ]
    for row in rows:
        lines.append(
            f"{row['id']:<50} {row['paper']:<20} {row['measured']:>10.4g}  "
            f"{row['band']:<28} {'yes' if row['holds'] else 'NO'}"
        )
    return "\n".join(lines), rows
