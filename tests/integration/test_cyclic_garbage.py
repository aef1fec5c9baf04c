"""A simulated run leaves no cyclic garbage behind.

``Environment.run`` switches the cyclic GC off for speed, so any
reference cycle built per event (say, a finished transfer or a
finished process) stays in memory until the run ends.  Each workload
below runs with a wrapper around ``Environment.run`` that calls
``gc.collect()`` the moment the run returns, while the cluster is still
alive: it must find nothing unreachable.
"""

import gc

import pytest

from repro.experiments.swim_runs import prepare_swim_cluster
from repro.sim.engine import Environment
from repro.workloads.scale import ScaleConfig, run_scale_replay
from repro.workloads.serve import ServeConfig, run_serve


@pytest.fixture
def garbage_after_run(monkeypatch):
    """Unreachable-object counts found right after each ``env.run``."""
    found = []
    real_run = Environment.run

    def run_then_collect(env, *args, **kwargs):
        gc.collect()  # count only what the run itself leaves behind
        try:
            return real_run(env, *args, **kwargs)
        finally:
            found.append(gc.collect())

    monkeypatch.setattr(Environment, "run", run_then_collect)
    return found


def test_swim_run_makes_no_cyclic_garbage(garbage_after_run):
    cluster, _jobs, specs, arrivals = prepare_swim_cluster(
        "ignem", seed=0, num_jobs=20
    )
    done = cluster.engine.run_workload(specs, arrivals, implicit_eviction=True)
    cluster.run(until=done)
    assert cluster.collector.block_reads
    assert garbage_after_run == [0]


def test_serve_run_with_heat_policy_makes_no_cyclic_garbage(garbage_after_run):
    result = run_serve(ServeConfig(policy="heat", num_requests=400, seed=0))
    assert result.requests_served == 400
    assert garbage_after_run == [0]


def test_scale_replay_makes_no_cyclic_garbage(garbage_after_run):
    result = run_scale_replay(ScaleConfig(num_nodes=50, num_jobs=200, seed=0))
    assert result.migrations_completed > 0
    assert garbage_after_run == [0]
