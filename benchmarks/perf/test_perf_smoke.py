"""Perf smoke test: every benchmark workload runs correctly and in time.

Each workload of the benchmark harness (``perfbench/``, declared in
``BENCHMARK.json``) runs once, one pass, in a fresh process::

    python3 perfbench/run.py --workload W --seconds 1

The run must report ``correct: true`` with no failed operations, and
its ``run_s`` must stay under three times the median recorded in
``perfbench/baseline-end_to_end.json`` — generous enough for a slower
CI runner, tight enough to catch a lost fast path.  The harness's own
unit checks (``perfbench/selftest.py``) run here too.  For a
measurement rather than a tripwire use ``perfbench/sweep.py``.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
PERFBENCH = ROOT / "perfbench"
BASELINE = json.loads((PERFBENCH / "baseline-end_to_end.json").read_text())["results"]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]

#: A run slower than this multiple of the baseline median fails.
CEILING_FACTOR = 3.0


def _run(*args):
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_correct_and_within_budget(workload):
    proc = _run(str(PERFBENCH / "run.py"), "--workload", workload, "--seconds", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True, report
    assert report["failed"] == 0, report
    run_s = report["metrics"]["run_s"]["value"]
    ceiling = CEILING_FACTOR * BASELINE[workload]["run_s"]["median"]
    assert run_s < ceiling, (
        f"{workload}: run_s {run_s:.3f}s is above {CEILING_FACTOR}x the "
        f"baseline median ({ceiling:.3f}s); measure with perfbench/sweep.py"
    )


def test_harness_selftest():
    proc = _run(str(PERFBENCH / "selftest.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
