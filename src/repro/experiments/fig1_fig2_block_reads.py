"""Figures 1 and 2: HDFS block-read and mapper-runtime distributions by
storage medium (paper Section II-B).

The paper stores SWIM-style job inputs on HDD, SSD, or RAM and histograms
(Fig 1) the time a mapper takes to read one 64MB HDFS block, plus the CDF
(Fig 2) of mapper runtimes.  Headline ratios: RAM block reads are ~160x
faster than HDD and ~7x faster than SSD; mapper runtimes are ~23x faster
from RAM than from HDD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..cluster import build_paper_testbed
from ..metrics.stats import cdf, histogram, mean, speedup_factor
from ..workloads import swim

#: Storage media compared in Fig 1a/1b/1c.
MEDIA = ("hdd", "ssd", "ram")


@dataclass(frozen=True)
class MediumResult:
    """Distributions measured on one storage medium."""

    medium: str
    block_read_durations: Tuple[float, ...]
    mapper_durations: Tuple[float, ...]

    @property
    def mean_block_read(self) -> float:
        return mean(self.block_read_durations)

    @property
    def mean_mapper(self) -> float:
        return mean(self.mapper_durations)


@dataclass(frozen=True)
class BlockReadStudy:
    """Fig 1 + Fig 2 outcome."""

    results: Dict[str, MediumResult]

    def read_ratio(self, slow: str, fast: str = "ram") -> float:
        """E.g. read_ratio('hdd') is the paper's 160x."""
        return speedup_factor(
            self.results[slow].mean_block_read, self.results[fast].mean_block_read
        )

    def mapper_ratio(self, slow: str, fast: str = "ram") -> float:
        """E.g. mapper_ratio('hdd') is the paper's 23x."""
        return speedup_factor(
            self.results[slow].mean_mapper, self.results[fast].mean_mapper
        )

    def read_histogram(self, medium: str, bins: int = 20):
        return histogram(self.results[medium].block_read_durations, bins=bins)

    def mapper_cdf(self, medium: str):
        return cdf(self.results[medium].mapper_durations)

    def format(self) -> str:
        lines = [
            "Fig 1/2 — block reads and mapper runtimes by medium",
            f"{'medium':<6} {'mean read (s)':>14} {'mean mapper (s)':>16}",
        ]
        for medium in MEDIA:
            result = self.results[medium]
            lines.append(
                f"{medium:<6} {result.mean_block_read:>14.3f} "
                f"{result.mean_mapper:>16.3f}"
            )
        lines.append(
            f"RAM vs HDD reads: {self.read_ratio('hdd'):.0f}x (paper ~160x); "
            f"RAM vs SSD reads: {self.read_ratio('ssd'):.1f}x (paper ~7x); "
            f"RAM vs HDD mappers: {self.mapper_ratio('hdd'):.0f}x (paper ~23x)"
        )
        return "\n".join(lines)


def run_block_read_study(seed: int = 0, num_jobs: int = 60) -> BlockReadStudy:
    """Run SWIM-style jobs with inputs on each medium and measure.

    ``medium='ram'`` uses the vmtouch-equivalent pinning on an HDD
    cluster, exactly as the paper's HDFS-Inputs-in-RAM setup does.
    """
    results: Dict[str, MediumResult] = {}
    for medium in MEDIA:
        preset = "mem-ssd" if medium == "ssd" else "mem-hdd"
        cluster = build_paper_testbed(seed=seed, tier_preset=preset)
        generator = swim.SwimGenerator(seed=seed)
        jobs = generator.generate(num_jobs=num_jobs)
        swim.materialize(cluster, jobs)
        if medium == "ram":
            cluster.pin_all_inputs()
        specs, arrivals = swim.to_specs(jobs)
        done = cluster.engine.run_workload(specs, arrivals)
        cluster.run(until=done)
        collector = cluster.collector
        results[medium] = MediumResult(
            medium=medium,
            block_read_durations=tuple(
                r.duration for r in collector.block_reads
            ),
            mapper_durations=tuple(t.duration for t in collector.map_tasks()),
        )
    return BlockReadStudy(results=results)
