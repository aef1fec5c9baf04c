"""repro: a full reproduction of *Ignem: Upward Migration of Cold Data in
Big Data File Systems* (Dzinamarira, Dinu, Ng — ICDCS 2018).

The package builds the paper's entire software stack as a deterministic
discrete-event simulation — storage devices, an HDFS-like DFS, a
YARN-like scheduler, a Tez-like execution engine, a Hive-like query
layer — and implements Ignem (proactive cold-data migration) on top,
together with every baseline, workload, and experiment in the paper.

Quickstart::

    from repro import build_paper_testbed, JobSpec
    from repro.storage import MB

    cluster = build_paper_testbed(ignem=True)
    cluster.client.create_file("/data/logs", 640 * MB)
    job = cluster.engine.submit_job(JobSpec("grep", ("/data/logs",)))
    cluster.run()
    print(f"{job.job_id} took {job.duration:.1f}s")

Traced run (observability is off by default; enabling it never changes
simulation outcomes)::

    from repro import ObservabilityConfig, TraceReader, build_paper_testbed, JobSpec

    observability = ObservabilityConfig(
        trace_path="run.jsonl", metrics_path="metrics.json"
    )
    cluster = build_paper_testbed(ignem=True, observability=observability)
    cluster.client.create_file("/data/logs", 640 * MB)
    cluster.engine.submit_job(JobSpec("grep", ("/data/logs",)))
    cluster.run()
    print(cluster.metrics.value("ignem.slave.migrations_completed"))
    TraceReader.load("run.jsonl").to_chrome("run.chrome.json")
"""

from .cluster import Cluster, ClusterConfig, build_paper_testbed
from .core import HeatConfig, HeatEstimator, IgnemConfig, IgnemMaster, IgnemSlave
from .mapreduce import EngineConfig, JobSpec, MapReduceEngine
from .metrics import MetricsCollector
from .obs import MetricsRegistry, ObservabilityConfig, TraceReader
from .workloads import ServeConfig

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "ClusterConfig",
    "EngineConfig",
    "HeatConfig",
    "HeatEstimator",
    "IgnemConfig",
    "IgnemMaster",
    "IgnemSlave",
    "JobSpec",
    "MapReduceEngine",
    "MetricsCollector",
    "MetricsRegistry",
    "ObservabilityConfig",
    "ServeConfig",
    "TraceReader",
    "build_paper_testbed",
    "__version__",
]
