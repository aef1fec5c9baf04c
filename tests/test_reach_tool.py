"""The reach script (``tools/reach.py``): its line sets and its runs."""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)

MODULE = '''\
def pick(flag):
    if flag:
        value = "yes"
    else:
        value = "no"
    return value


def unused():
    return (
        1
    )
'''


def test_unreached_runs_split_at_reached_lines():
    executable = {1, 2, 3, 5, 6, 9}
    assert reach.unreached_runs(executable, {3}) == [(1, 2, 2), (5, 9, 3)]
    assert reach.unreached_runs(executable, executable) == []


def test_recorder_sees_exactly_the_lines_that_ran(tmp_path):
    path = tmp_path / "reach_probe.py"
    path.write_text(MODULE)
    executable = reach.executable_lines(path)
    # Not the ``else:``, the blank lines or the closing parenthesis.
    assert executable == {1, 2, 3, 5, 6, 9, 10, 11}

    recorder = reach.LineRecorder(tmp_path)
    sys.path.insert(0, str(tmp_path))
    recorder.start()
    try:
        import reach_probe

        reach_probe.pick(True)
    finally:
        recorder.stop()
        sys.path.remove(str(tmp_path))
        sys.modules.pop("reach_probe", None)

    reached = recorder.hits[str(path)] & executable
    # Module level runs the two ``def`` lines; ``pick(True)`` skips the
    # else branch; ``unused`` never runs.
    assert sorted(executable - reached) == [5, 10, 11]
