"""MapReduceEngine: the execution-engine facade applications talk to."""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..dfs.client import DFSClient
from ..metrics.collector import MetricsCollector
from ..scheduler.resource_manager import ResourceManager
from ..sim.engine import Environment
from ..sim.events import Event, join_all
from .job import MRJob
from .spec import EngineConfig, JobSpec


class MapReduceEngine:
    """Submits and tracks MapReduce jobs on a cluster.

    This plays the role Apache Tez plays in the paper's setup: the thing
    that turns a job spec into scheduled tasks.  ``use_ignem`` defaults to
    whether the cluster's DFS client has an Ignem master attached, so the
    same workload code runs unmodified on all three paper configurations
    (HDFS, HDFS-Inputs-in-RAM, Ignem).
    """

    def __init__(
        self,
        env: Environment,
        client: DFSClient,
        rm: ResourceManager,
        collector: Optional[MetricsCollector] = None,
        config: Optional[EngineConfig] = None,
    ):
        self.env = env
        self.client = client
        self.rm = rm
        self.collector = collector or MetricsCollector()
        self.config = config or EngineConfig()
        self.jobs: List[MRJob] = []

    def submit_job(
        self,
        spec: JobSpec,
        use_ignem: Optional[bool] = None,
        implicit_eviction: bool = True,
        extra_lead_time: float = 0.0,
        config: Optional[EngineConfig] = None,
    ) -> MRJob:
        """Build and submit a job; returns the runtime job object.

        ``config`` overrides the engine-wide cost model for this job
        (e.g. Hive-on-Tez stages reuse warm sessions and pay far lower
        submit/commit overheads than cold MapReduce jobs).
        """
        if use_ignem is None:
            use_ignem = self.client.ignem_master is not None
        job = MRJob(
            self.env,
            spec,
            self.client,
            self.rm,
            self.collector,
            config or self.config,
            use_ignem=use_ignem,
            implicit_eviction=implicit_eviction,
            extra_lead_time=extra_lead_time,
            job_id=f"job-{len(self.jobs):05d}",
        )
        self.jobs.append(job)
        job.submit()
        return job

    def run_workload(
        self,
        specs: Sequence[JobSpec],
        arrival_times: Sequence[float],
        use_ignem: Optional[bool] = None,
        implicit_eviction: bool = True,
    ) -> Event:
        """Submit ``specs`` at the given absolute times; returns an event
        that fires when every job has completed."""
        if len(specs) != len(arrival_times):
            raise ValueError(
                f"{len(specs)} specs but {len(arrival_times)} arrival times"
            )
        all_done = self.env.event()
        jobs_completed: List[Event] = []

        def driver():
            now = self.env.now
            for spec, at in sorted(
                zip(specs, arrival_times), key=lambda pair: pair[1]
            ):
                if at > self.env.now:
                    yield self.env.timeout(at - self.env.now)
                job = self.submit_job(
                    spec,
                    use_ignem=use_ignem,
                    implicit_eviction=implicit_eviction,
                )
                jobs_completed.append(job.completed)
            yield join_all(self.env, jobs_completed)
            all_done.succeed(None)

        self.env.process(driver(), name="workload-driver")
        return all_done
