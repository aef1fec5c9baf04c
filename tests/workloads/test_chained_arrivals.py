"""Structure of the serve and scale replay drivers.

Both replays run each request or trace row as a callback chain driven
by :func:`repro.sim.events.chain_arrivals`, not as one process per
request over a pre-built arrival heap.  These tests pin that structure
(process count and queue depth independent of the request count), the
ordering the driver relies on, and that a failed read still aborts the
run instead of vanishing with the process that used to carry it.
"""

import pytest

from repro.sim.engine import Environment
from repro.sim.rand import RandomSource
from repro.workloads import scale, serve
from repro.workloads.google_trace import GoogleTraceGenerator
from repro.workloads.scale import ScaleConfig, run_scale_replay
from repro.workloads.serve import ServeConfig, generate_requests, run_serve

SERVE_SMALL = dict(
    num_nodes=4,
    num_objects=12,
    base_rps=6.0,
    num_tenants=2,
)


class _DeviceDied(Exception):
    """Raised into every in-flight disk transfer by the fault hook."""


def _hook_serve_cluster(monkeypatch, on_build):
    """Call ``on_build(cluster)`` on the cluster ``run_serve`` builds."""

    class HookedCluster(serve.Cluster):
        def __init__(self, config):
            super().__init__(config)
            on_build(self)

    monkeypatch.setattr(serve, "Cluster", HookedCluster)


def _hook_scale_cluster(monkeypatch, on_build):
    """Call ``on_build(cluster)`` on the cluster ``run_scale_replay`` builds."""
    build = scale.build_scale_cluster

    def hooked(config):
        cluster = build(config)
        on_build(cluster)
        return cluster

    monkeypatch.setattr(scale, "build_scale_cluster", hooked)


def _fail_disks_at(when, aborted):
    """A build hook that kills every disk transfer in flight at ``when``,
    or at the first half-second step after it with one in flight."""

    def on_build(cluster):
        env = cluster.env

        def fail(_event):
            count = sum(
                datanode.disk.fail_all(_DeviceDied("disk died"))
                for datanode in cluster.datanodes.values()
            )
            if count:
                aborted.append(count)
            elif env.now < when + 100.0:
                env.timeout(0.5).callbacks.append(fail)

        env.timeout(when).callbacks.append(fail)

    return on_build


def _track_peak_queue(peak):
    """A build hook recording the kernel queue's peak length per dispatch."""

    def on_build(cluster):
        env = cluster.env

        def monitor(_when, _event, _callbacks):
            # +1: the entry just popped for dispatch.
            peak[0] = max(peak[0], len(env._queue) + 1)

        env.monitor = monitor

    return on_build


@pytest.fixture
def process_calls(monkeypatch):
    """Count every ``Environment.process`` call made while the test runs."""
    calls = [0]
    original = Environment.process

    def counting(self, generator, name=""):
        calls[0] += 1
        return original(self, generator, name)

    monkeypatch.setattr(Environment, "process", counting)
    return calls


class TestFailuresSurface:
    def test_serve_read_failure_aborts_the_run(self, monkeypatch):
        aborted = []
        _hook_serve_cluster(monkeypatch, _fail_disks_at(10.0, aborted))
        with pytest.raises(_DeviceDied):
            run_serve(
                ServeConfig(**SERVE_SMALL, policy="none", num_requests=200)
            )
        assert aborted and aborted[0] > 0

    def test_scale_read_failure_aborts_the_run(self, monkeypatch):
        aborted = []
        _hook_scale_cluster(monkeypatch, _fail_disks_at(30.0, aborted))
        with pytest.raises(_DeviceDied):
            run_scale_replay(
                ScaleConfig(num_nodes=20, num_jobs=100, ignem=False)
            )
        assert aborted and aborted[0] > 0


class TestNoProcessPerRequest:
    def test_serve_process_count_ignores_request_count(self, process_calls):
        counts = []
        for num_requests in (100, 1000):
            process_calls[0] = 0
            run_serve(
                ServeConfig(
                    **SERVE_SMALL, policy="heat", num_requests=num_requests
                )
            )
            counts.append(process_calls[0])
        assert counts[0] == counts[1]
        assert counts[0] < 100

    def test_scale_process_count_ignores_job_count(self, process_calls):
        counts = []
        for num_jobs in (100, 1000):
            process_calls[0] = 0
            run_scale_replay(ScaleConfig(num_nodes=20, num_jobs=num_jobs))
            counts.append(process_calls[0])
        assert counts[0] == counts[1]
        assert counts[0] < 100

    def test_serve_queue_never_holds_the_arrival_stream(self, monkeypatch):
        peak = [0]
        _hook_serve_cluster(monkeypatch, _track_peak_queue(peak))
        result = run_serve(
            ServeConfig(**SERVE_SMALL, policy="heat", num_requests=2000)
        )
        assert result.requests_served == 2000
        assert 0 < peak[0] < 200


class TestArrivalOrderInputs:
    """The chained driver needs non-decreasing arrival times."""

    @pytest.mark.parametrize("seed", range(10))
    def test_trace_submit_times_never_decrease(self, seed):
        jobs = GoogleTraceGenerator(seed).generate_jobs(5000)
        submits = [job.submit_time for job in jobs]
        assert all(a <= b for a, b in zip(submits, submits[1:]))

    @pytest.mark.parametrize("seed", range(10))
    def test_serve_request_times_never_decrease(self, seed):
        config = ServeConfig(num_requests=20000, seed=seed)
        requests = generate_requests(
            config, RandomSource(seed).spawn("serve")
        )
        times = [request.time for request in requests]
        assert all(a <= b for a, b in zip(times, times[1:]))
