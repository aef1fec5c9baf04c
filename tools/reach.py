"""Line reach of the tier-1 tests over ``src/``, on the standard library.

Runs the tier-1 suite in this process under :func:`sys.settrace`, then
prints how many of the executable lines under ``src/`` it reached and
the largest runs of unreached lines.  It reports and never gates: the
exit code is 0 whatever the share.

    PYTHONPATH=src python tools/reach.py [--summary FILE] [-- PYTEST_ARGS]

``--summary`` appends the report as Markdown to ``FILE`` (CI passes
``$GITHUB_STEP_SUMMARY``).  Arguments after ``--`` go to pytest in place
of the default ``tests``.  Code the tests run in a subprocess is not
traced, and tracing makes the suite about three times slower.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from pathlib import Path
from types import CodeType
from typing import Dict, List, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# How many of the largest unreached runs the report lists.
TOP = 10


def executable_lines(path: Path) -> Set[int]:
    """Every line some bytecode instruction of ``path`` belongs to."""
    stack = [compile(path.read_text(), str(path), "exec")]
    lines: Set[int] = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


class LineRecorder:
    """A ``sys.settrace`` hook recording the lines run in ``src/`` files.

    Frames of any other file get no local tracer, so they cost one
    global-trace call each and no per-line events.
    """

    def __init__(self, root: Path):
        self.prefix = str(root) + os.sep
        self.hits: Dict[str, Set[int]] = {}
        self._local: Dict[str, Optional[object]] = {}

    def _local_tracer(self, filename: str):
        path = os.path.abspath(filename)
        if not path.startswith(self.prefix):
            return None
        add = self.hits.setdefault(path, set()).add

        def local(frame, event, _arg):
            if event == "line":
                add(frame.f_lineno)
            return local

        return local

    def __call__(self, frame, _event, _arg):
        filename = frame.f_code.co_filename
        try:
            local = self._local[filename]
        except KeyError:
            local = self._local[filename] = self._local_tracer(filename)
        return local

    def start(self) -> None:
        self._previous = sys.gettrace(), threading.gettrace()
        threading.settrace(self)
        sys.settrace(self)

    def stop(self) -> None:
        """Stop recording; whatever tracer ran before :meth:`start`
        (another recorder, when the suite itself runs under one)
        resumes."""
        trace, thread_trace = self._previous
        sys.settrace(trace)
        threading.settrace(thread_trace)


def unreached_runs(
    executable: Set[int], reached: Set[int]
) -> List[Tuple[int, int, int]]:
    """``(first, last, count)`` per maximal run of unreached executable
    lines, with no reached executable line inside it."""
    runs: List[Tuple[int, int, int]] = []
    first = last = None
    count = 0
    for line in sorted(executable):
        if line in reached:
            if first is not None:
                runs.append((first, last, count))
            first = None
            continue
        if first is None:
            first, count = line, 0
        last = line
        count += 1
    if first is not None:
        runs.append((first, last, count))
    return runs


def report(hits: Dict[str, Set[int]]) -> List[str]:
    total = reached_total = 0
    runs = []
    for path in sorted(SRC.rglob("*.py")):
        executable = executable_lines(path)
        reached = hits.get(str(path), set()) & executable
        total += len(executable)
        reached_total += len(reached)
        name = path.relative_to(ROOT).as_posix()
        runs.extend(
            (count, name, first, last)
            for first, last, count in unreached_runs(executable, reached)
        )
    share = 100.0 * reached_total / total if total else 0.0
    lines = [
        f"src/ reach: {reached_total:,} of {total:,} executable lines ({share:.1f}%)",
        f"largest unreached runs (top {TOP}):",
    ]
    runs.sort(key=lambda run: (-run[0], run[1], run[2]))
    lines.extend(
        f"  {name}:{first}-{last} ({count} lines)"
        for count, name, first, last in runs[:TOP]
    )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--summary", help="append the report (Markdown) here")
    parser.add_argument("pytest_args", nargs="*", help="after --: pytest arguments")
    args = parser.parse_args(argv)

    import pytest

    sys.path.insert(0, str(SRC))
    recorder = LineRecorder(SRC)
    recorder.start()
    try:
        status = pytest.main(["-q", *(args.pytest_args or [str(ROOT / "tests")])])
    finally:
        recorder.stop()

    lines = report(recorder.hits)
    if status != 0:
        lines.append(f"(pytest exited {int(status)}; the share covers the tests that ran)")
    print("\n".join(lines))
    if args.summary:
        with open(args.summary, "a") as out:
            out.write("```\n" + "\n".join(lines) + "\n```\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
