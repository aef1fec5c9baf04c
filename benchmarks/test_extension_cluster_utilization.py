"""Extension: validate the Fig 4 residual-bandwidth claim on our own
simulated testbed.

The paper measures disk utilization in the Google trace; here we probe
the simulated 8-node cluster *while it runs the SWIM workload* and show
the same headline: mean disk utilization is low, leaving abundant
residual bandwidth — which is precisely the resource Ignem converts into
speedup.
"""

import pytest

from repro.cluster import build_paper_testbed
from repro.experiments.swim_runs import SWIM_ENGINE
from repro.workloads import swim

from conftest import run_once


class UtilizationProbe:
    """Samples a device's busy fraction over fixed windows."""

    def __init__(self, env, device, window):
        self.env = env
        self.device = device
        self.window = float(window)
        self.samples = []
        self._last_busy = device.busy_time
        env.process(self._run(), name=f"util-probe-{device.name}")

    def _run(self):
        while True:
            yield self.env.timeout(self.window)
            busy = self.device.busy_time
            self.samples.append((busy - self._last_busy) / self.window)
            self._last_busy = busy


def _run():
    cluster = build_paper_testbed(seed=0, engine_config=SWIM_ENGINE)
    jobs = swim.SwimGenerator(seed=0).generate(num_jobs=120)
    swim.materialize(cluster, jobs)
    probes = [
        UtilizationProbe(cluster.env, dn.disk, window=30.0)
        for dn in cluster.datanodes.values()
    ]
    specs, arrivals = swim.to_specs(jobs)
    done = cluster.engine.run_workload(specs, arrivals)
    cluster.run(until=done)
    horizon = cluster.env.now

    per_disk_mean = [
        sum(p.samples) / len(p.samples) for p in probes if p.samples
    ]
    per_disk_peak = [max(p.samples) for p in probes if p.samples]
    return {
        "horizon": horizon,
        "mean": sum(per_disk_mean) / len(per_disk_mean),
        "peak": max(per_disk_peak),
    }


def test_extension_cluster_utilization(benchmark, record_result):
    stats = run_once(benchmark, _run)

    lines = [
        "Extension — disk utilization of the simulated testbed under SWIM",
        f"workload horizon: {stats['horizon']:.0f}s",
        f"mean disk utilization: {stats['mean']:.1%} "
        f"(the Google trace's figure was ~3%)",
        f"peak 30s-window utilization on any disk: {stats['peak']:.1%}",
    ]
    record_result("extension_cluster_utilization", "\n".join(lines))

    # Low mean, bursty peaks: the Fig 4 shape on our own cluster.
    assert stats["mean"] < 0.5
    assert stats["peak"] > 2 * stats["mean"]
