"""Fuzz-sweep driver, shrinking loop, and corpus replay for DST.

``DstRunner.fuzz`` generates and judges scenarios until one fails (or
the budget runs out), then hands the failure to the shrinker and
serializes the minimal reproducer.  ``DstRunner.replay`` re-judges
saved corpus scenarios — the regression side of the subsystem.  Both
report harness health through a :class:`MetricsRegistry`
(``dst.scenarios.*`` and ``dst.oracle.<name>.pass/fail``) so
``--metrics-out`` snapshots cover the test harness itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from ..obs.registry import MetricsRegistry
from .harness import ScenarioResult, run_scenario
from .scenario import Scenario, ScenarioGenerator
from .shrinker import describe_shrink, shrink_scenario


@dataclass
class DstReport:
    """Outcome of a fuzz sweep or a corpus replay."""

    mode: str  # "fuzz" | "replay"
    seed: int
    #: Every judged scenario, in run order (shrink candidates excluded).
    results: List[ScenarioResult] = field(default_factory=list)
    #: Set when a fuzz failure was minimized.
    shrunk: Optional[Scenario] = None
    shrink_attempts: int = 0
    shrink_note: str = ""
    #: Where the minimal reproducer was written, if anywhere.
    artifact: Optional[Path] = None

    @property
    def scenarios_run(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> List[ScenarioResult]:
        return [result for result in self.results if not result.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def format(self) -> str:
        lines = [
            f"dst {self.mode}: {self.scenarios_run} scenario(s), "
            f"{len(self.failures)} failing (seed={self.seed})"
        ]
        for result in self.results:
            stats = result.stats
            lines.append(
                f"  {'ok  ' if result.ok else 'FAIL'} "
                f"{result.scenario.describe()}: "
                f"{stats['jobs_completed']}/{stats['jobs_total']} jobs, "
                f"{stats['faults_applied']} faults applied, "
                f"{stats['repair_copies']} repair copies"
            )
            if not result.ok:
                lines.append(result.format_violations())
        if self.shrunk is not None:
            lines.append(
                f"shrunk in {self.shrink_attempts} attempt(s): "
                f"{self.shrink_note}"
            )
            lines.append(f"minimal: {self.shrunk.describe()}")
        if self.artifact is not None:
            lines.append(f"reproducer written to {self.artifact}")
        lines.append("verdict: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


class DstRunner:
    """Deterministic simulation-testing driver.

    One runner instance owns one sweep: a seed, an optional sabotage
    mode (harness self-test), and a registry collecting
    ``dst.scenarios.run/failed`` and per-oracle pass/fail counters.
    """

    def __init__(
        self,
        seed: int = 0,
        sabotage: Optional[str] = None,
        elasticity: bool = False,
        interactive: bool = False,
    ):
        self.seed = seed
        self.sabotage = sabotage
        self.registry = MetricsRegistry()
        #: Generate kill/join/decommission faults in fuzzed scenarios.
        self.elasticity = elasticity
        #: Mix interactive serve traffic (+ heat policy) into fuzzed
        #: scenarios.
        self.interactive = interactive

    def _judge(self, scenario: Scenario) -> ScenarioResult:
        result = run_scenario(scenario, sabotage=self.sabotage)
        self.registry.counter("dst.scenarios.run").inc()
        if not result.ok:
            self.registry.counter("dst.scenarios.failed").inc()
        for report in result.reports:
            verdict = "pass" if report.ok else "fail"
            self.registry.counter(
                f"dst.oracle.{report.name}.{verdict}"
            ).inc()
        return result

    def fuzz(
        self,
        runs: int,
        shrink: bool = True,
        generate: Optional[Callable[[int], Scenario]] = None,
    ) -> DstReport:
        """Judge up to ``runs`` scenarios ``generate(0)``,
        ``generate(1)``, ...; stop at the first failure and minimize it.

        ``generate`` defaults to this runner's
        :class:`ScenarioGenerator`; ``python -m repro chaos`` passes a
        :func:`~repro.dst.scenario.swim_scenario` family instead.
        """
        report = DstReport(mode="fuzz", seed=self.seed)
        if generate is None:
            generate = ScenarioGenerator(
                self.seed,
                elasticity=self.elasticity,
                interactive=self.interactive,
            ).generate
        for index in range(runs):
            result = self._judge(generate(index))
            report.results.append(result)
            if result.ok:
                continue
            if shrink:
                self._shrink_failure(report, result)
            break
        return report

    def _shrink_failure(
        self, report: DstReport, failure: ScenarioResult
    ) -> None:
        failing_oracles = {name for name, _ in failure.violations}

        def still_fails(candidate: Scenario) -> bool:
            result = self._judge(candidate)
            return any(
                name in failing_oracles for name, _ in result.violations
            )

        shrunk, attempts = shrink_scenario(failure.scenario, still_fails)
        report.shrunk = shrunk
        report.shrink_attempts = attempts
        report.shrink_note = describe_shrink(failure.scenario, shrunk)

    def write_artifact(self, report: DstReport, out_dir: Path) -> None:
        """Serialize the minimal (or original) failing scenario."""
        if not report.failures:
            return
        scenario = (
            report.shrunk
            if report.shrunk is not None
            else report.failures[0].scenario
        )
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"dst-failure-seed{self.seed}.json"
        scenario.save(path)
        report.artifact = path

    def replay(self, paths: Sequence[Path]) -> DstReport:
        """Re-judge saved corpus scenarios (regression replay)."""
        report = DstReport(mode="replay", seed=self.seed)
        for path in sorted(Path(p) for p in paths):
            report.results.append(self._judge(Scenario.load(path)))
        return report


def corpus_paths(corpus_dir: Path) -> List[Path]:
    """All saved scenarios under a corpus directory, sorted by name."""
    return sorted(Path(corpus_dir).glob("*.json"))
