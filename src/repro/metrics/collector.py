"""Central sink for measurement records produced during a simulation run."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .records import (
    BlockReadRecord,
    EvictionRecord,
    JobRecord,
    MemorySample,
    MigrationRecord,
    TaskRecord,
)

#: Called with every record as it is reported.
RecordListener = Callable[[object], None]


class MetricsCollector:
    """Accumulates typed records; every subsystem reports into one of these.

    It is the one place a job, task, block read, migration, eviction or
    memory sample is reported; registry counters, trace events and usage
    timelines repeating those facts are derived from its records.

    The collector is passive — it never touches simulation time — so it can
    be shared freely and inspected after (or during) a run.
    """

    def __init__(self) -> None:
        self.block_reads: List[BlockReadRecord] = []
        self.tasks: List[TaskRecord] = []
        self.jobs: List[JobRecord] = []
        self.migrations: List[MigrationRecord] = []
        self.evictions: List[EvictionRecord] = []
        self.memory_samples: List[MemorySample] = []
        # Lazy id->record indexes for the lookup helpers; rebuilt on first
        # query after an append (experiments issue thousands of per-job
        # lookups against thousands of records, so linear scans were
        # quadratic in practice).  Each index remembers how many records it
        # covered so direct list appends are detected too.
        self._job_index: Optional[Dict[str, JobRecord]] = None
        self._job_indexed = 0
        self._tasks_index: Optional[Dict[str, List[TaskRecord]]] = None
        self._tasks_indexed = 0
        self._samples_index: Optional[Dict[str, List[MemorySample]]] = None
        self._samples_indexed = 0
        self._listeners: List[RecordListener] = []

    def subscribe(self, listener: RecordListener) -> None:
        """Call ``listener`` with each record reported from now on."""
        self._listeners.append(listener)

    def _publish(self, record) -> None:
        for listener in self._listeners:
            listener(record)

    # -- record sinks ----------------------------------------------------------

    def record_block_read(self, record: BlockReadRecord) -> None:
        self.block_reads.append(record)
        self._publish(record)

    def record_task(self, record: TaskRecord) -> None:
        self.tasks.append(record)
        self._tasks_index = None
        self._publish(record)

    def record_job(self, record: JobRecord) -> None:
        self.jobs.append(record)
        self._job_index = None
        self._publish(record)

    def record_migration(self, record: MigrationRecord) -> None:
        self.migrations.append(record)
        self._publish(record)

    def record_eviction(self, record: EvictionRecord) -> None:
        self.evictions.append(record)
        self._publish(record)

    def record_memory_sample(self, sample: MemorySample) -> None:
        self.memory_samples.append(sample)
        self._publish(sample)

    # -- convenience queries -------------------------------------------------

    def job(self, job_id: str) -> Optional[JobRecord]:
        index = self._job_index
        if index is None or self._job_indexed != len(self.jobs):
            # First match wins, matching the old linear scan: keep the
            # earliest record for a duplicated job_id.
            index = {}
            for record in self.jobs:
                index.setdefault(record.job_id, record)
            self._job_index = index
            self._job_indexed = len(self.jobs)
        return index.get(job_id)

    def tasks_for_job(self, job_id: str, kind: Optional[str] = None) -> List[TaskRecord]:
        index = self._tasks_index
        if index is None or self._tasks_indexed != len(self.tasks):
            index = {}
            for task in self.tasks:
                index.setdefault(task.job_id, []).append(task)
            self._tasks_index = index
            self._tasks_indexed = len(self.tasks)
        tasks = index.get(job_id, [])
        if kind is None:
            return list(tasks)
        return [t for t in tasks if t.kind == kind]

    def memory_samples_for(self, node: str) -> List[MemorySample]:
        """One node's memory samples, in report order."""
        index = self._samples_index
        if index is None or self._samples_indexed != len(self.memory_samples):
            index = {}
            for sample in self.memory_samples:
                index.setdefault(sample.node, []).append(sample)
            self._samples_index = index
            self._samples_indexed = len(self.memory_samples)
        return list(index.get(node, ()))

    def map_tasks(self) -> List[TaskRecord]:
        return [t for t in self.tasks if t.kind == "map"]

    def reduce_tasks(self) -> List[TaskRecord]:
        return [t for t in self.tasks if t.kind == "reduce"]

    def block_reads_for_job(self, job_id: str) -> List[BlockReadRecord]:
        return [r for r in self.block_reads if r.job_id == job_id]

    def completed_migrations(self) -> List[MigrationRecord]:
        return [m for m in self.migrations if m.outcome == "completed"]

    def mean_job_duration(self) -> float:
        if not self.jobs:
            raise ValueError("no job records collected")
        return sum(j.duration for j in self.jobs) / len(self.jobs)

    def mean_task_duration(self, kind: Optional[str] = None) -> float:
        tasks = self.tasks if kind is None else [t for t in self.tasks if t.kind == kind]
        if not tasks:
            raise ValueError(f"no task records collected (kind={kind!r})")
        return sum(t.duration for t in tasks) / len(tasks)

    def mean_block_read_duration(self) -> float:
        if not self.block_reads:
            raise ValueError("no block read records collected")
        return sum(r.duration for r in self.block_reads) / len(self.block_reads)

    def filter_jobs(self, predicate: Callable[[JobRecord], bool]) -> List[JobRecord]:
        return [j for j in self.jobs if predicate(j)]

    def summary(self) -> Dict[str, float]:
        """A terse run summary used by examples and experiment logs."""
        out: Dict[str, float] = {
            "jobs": len(self.jobs),
            "tasks": len(self.tasks),
            "block_reads": len(self.block_reads),
            "migrations_completed": len(self.completed_migrations()),
        }
        if self.jobs:
            out["mean_job_duration"] = self.mean_job_duration()
        if self.tasks:
            out["mean_task_duration"] = self.mean_task_duration()
        if self.block_reads:
            out["mean_block_read_duration"] = self.mean_block_read_duration()
        return out
