"""Job specifications and engine cost-model configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..storage.device import MB

#: Mapper compute throughput applied to its input bytes, covering
#: deserialization + user code.
MAP_CPU_BYTES_PER_SEC = 400 * MB
#: Reducer compute throughput applied to its shuffle share.
REDUCE_CPU_BYTES_PER_SEC = 200 * MB
#: Speculation starts once this fraction of a job's maps have finished.
SPECULATIVE_MIN_COMPLETED = 0.5
#: Seconds between straggler checks.
SPECULATIVE_POLL_INTERVAL = 1.0
#: At most this fraction of a job's maps may get duplicate attempts
#: (Hadoop similarly caps speculation to bound wasted work).
SPECULATIVE_MAX_FRACTION = 0.25


@dataclass(frozen=True)
class JobSpec:
    """A MapReduce job description (what SWIM traces record per job).

    ``input_paths`` must already exist in the DFS.  ``shuffle_bytes`` and
    ``output_bytes`` are job totals, split evenly over ``num_reduces``
    (zero reduces make a map-only job).
    """

    name: str
    input_paths: Tuple[str, ...]
    shuffle_bytes: float = 0.0
    output_bytes: float = 0.0
    num_reduces: int = 1
    #: Multiplier on the engine's map CPU cost (1.0 = default workload).
    map_cpu_factor: float = 1.0
    #: Multiplier on the engine's reduce CPU cost.
    reduce_cpu_factor: float = 1.0

    def __post_init__(self) -> None:
        if not self.input_paths:
            raise ValueError("a job needs at least one input path")
        if self.shuffle_bytes < 0 or self.output_bytes < 0:
            raise ValueError("shuffle/output bytes must be non-negative")
        if self.num_reduces < 0:
            raise ValueError(f"num_reduces must be >= 0, got {self.num_reduces}")
        if self.map_cpu_factor < 0 or self.reduce_cpu_factor < 0:
            raise ValueError("cpu factors must be non-negative")


@dataclass(frozen=True)
class EngineConfig:
    """Cost model for the execution engine, calibrated to the paper's
    testbed (Section IV-A: Xeon E5-1650, Tez on YARN, 3s heartbeats).

    * ``task_startup_overhead`` — container launch + JVM warm-up per task.
      Table II pins the floor: a mapper whose 64MB input is already in RAM
      takes ~0.28s total, so overheads are a couple hundred ms.
    * ``job_submit_overhead`` — job-submitter work before tasks reach the
      RM queue (config, AM/DAG setup, shipping binaries): additional
      lead-time for migration (Section II-C1).
    * ``job_commit_overhead`` — output commit + AM teardown after the last
      task finishes.
    * speculative execution knobs — see the field comments below.

    The CPU rates and the speculation cadence and budget are module
    constants (``MAP_CPU_BYTES_PER_SEC`` and friends).
    """

    task_startup_overhead: float = 0.2
    job_submit_overhead: float = 4.0
    job_commit_overhead: float = 6.0
    #: Replication factor for job output files.
    output_replication: int = 1
    #: Hadoop-style speculative execution for map stragglers: once
    #: ``SPECULATIVE_MIN_COMPLETED`` of a job's maps have finished, any
    #: running map slower than ``speculative_slowdown`` x the median gets
    #: a duplicate attempt; the first finisher wins (the loser's work is
    #: wasted, as in Hadoop without task kill).
    speculative_execution: bool = False
    speculative_slowdown: float = 1.5

    def __post_init__(self) -> None:
        if not (
            self.task_startup_overhead >= 0
            and self.job_submit_overhead >= 0
            and self.job_commit_overhead >= 0
        ):
            raise ValueError("overheads must be non-negative")
        if self.output_replication < 1:
            raise ValueError("output replication must be >= 1")
        if not self.speculative_slowdown > 1.0:
            raise ValueError("speculative_slowdown must be > 1")
