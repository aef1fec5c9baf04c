"""Typed measurement records emitted by the simulated stack.

Each record corresponds to one level of instrumentation used in the
paper's evaluation: HDFS block reads (Fig 1, Fig 6), tasks (Fig 2,
Table II), jobs (Table I, Fig 5, Table III, Fig 8, Fig 9), and migrations
plus memory samples (Fig 7).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True, unsafe_hash=True)
class BlockReadRecord:
    """One HDFS block read by one task."""

    job_id: str
    task_id: str
    block_id: str
    node: str
    source: str  # "hdd" | "ssd" | "ram" | "remote"
    nbytes: float
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(slots=True, unsafe_hash=True)
class TaskRecord:
    """One task (map or reduce) execution."""

    job_id: str
    task_id: str
    kind: str  # "map" | "reduce"
    node: str
    scheduled_at: float
    start: float
    end: float
    input_bytes: float = 0.0
    output_bytes: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def queue_delay(self) -> float:
        return self.start - self.scheduled_at


@dataclass(slots=True, unsafe_hash=True)
class JobRecord:
    """One job from submission to completion."""

    job_id: str
    name: str
    submitted_at: float
    first_task_start: float
    end: float
    input_bytes: float
    num_maps: int
    num_reduces: int
    failed: bool  # a task was abandoned: the job ended with partial output

    @property
    def duration(self) -> float:
        return self.end - self.submitted_at

    @property
    def lead_time(self) -> float:
        """Paper definition: submission to first task start."""
        return self.first_task_start - self.submitted_at


@dataclass(slots=True, unsafe_hash=True)
class MigrationRecord:
    """One block migration performed by an Ignem slave."""

    job_id: str
    block_id: str
    node: str
    nbytes: float
    enqueued_at: float
    start: float
    end: float
    outcome: str  # "completed" | "skipped" | "cancelled"
    tier: str  # destination tier
    queue_wait: float  # receipt by the slave to dequeue by a worker

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(slots=True, unsafe_hash=True)
class EvictionRecord:
    """One block eviction from an Ignem slave's migration buffer."""

    block_id: str
    node: str
    nbytes: float
    time: float
    reason: str  # "explicit" | "implicit" | "cleanup" | "failure" | "preempted" | "decommission"
    tier: str  # the tier the block was evicted from


@dataclass(slots=True, unsafe_hash=True)
class MemorySample:
    """Migrated-bytes usage on one node after a change in ``tier`` (Fig 7)."""

    node: str
    time: float
    migrated_bytes: float
    tier: str
    tier_bytes: float  # ``tier``'s migrated bytes after the change
