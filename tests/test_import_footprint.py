"""What a run loads: numpy and the asyncio stack only where it uses them.

Every check that asks whether a module is loaded runs in a fresh
interpreter, because pytest's own imports already fill ``sys.modules``.
"""

import json
import subprocess
import sys

import numpy
import pytest

from repro.sim.rand import RandomSource

#: Heavy modules a simulated serve run has no use for.
HEAVY = ("numpy", "asyncio", "ssl", "hashlib", "socket")


def loaded_after(code: str):
    """The modules of :data:`HEAVY` that ``code`` leaves loaded."""
    probe = (
        f"{code}\n"
        "import json, sys\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], check=True, capture_output=True, text=True
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_cli_and_serve_run_load_no_heavy_module():
    assert (
        loaded_after(
            "import repro, repro.__main__\n"
            "from repro.workloads.serve import ServeConfig, run_serve\n"
            "result = run_serve(ServeConfig(num_nodes=4, num_objects=12,"
            " num_requests=200, policy='heat'))\n"
            "assert result.requests_served == 200, result\n"
        )
        == []
    )


def test_first_lognormal_draw_loads_numpy():
    assert "numpy" in loaded_after(
        "from repro.sim.rand import RandomSource\n"
        "import sys\n"
        "source = RandomSource(5)\n"
        "assert 'numpy' not in sys.modules\n"
        "source.lognormal(0.0, 1.0)\n"
    )


@pytest.mark.parametrize("seed", [0, 5, 2**40])
def test_lognormal_matches_numpy_draw_for_draw(seed):
    source = RandomSource(seed)
    reference = numpy.random.default_rng(seed)
    draws = [source.lognormal(1.0, 2.0) for _ in range(50)]
    assert draws == [float(reference.lognormal(1.0, 2.0)) for _ in range(50)]


def test_generator_is_built_once_and_not_by_spawn(monkeypatch):
    built = []
    default_rng = numpy.random.default_rng

    def counting_rng(seed):
        built.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(numpy.random, "default_rng", counting_rng)
    parent = RandomSource(7)
    child = parent.spawn("child")
    assert built == []
    assert child.np is child.np
    assert built == [child.seed]
