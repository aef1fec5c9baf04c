"""HiveSession: compiles queries into MR stage-jobs and runs them.

The paper's integration is a one-off framework change: a hook invoked
when Hive finishes compiling a query hands Ignem the list of input files
(Section IV-B3).  All queries then benefit transparently.  This module
reproduces that structure: :class:`HiveSession` compiles a query into a
chain of MR jobs, and :func:`ignem_migration_hook` is the post-compile
hook issuing the single ``migrate`` call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence

from ..mapreduce.spec import EngineConfig, JobSpec
from ..sim.events import Event
from .catalog import TPCDS_TABLES, HiveQuery, query_input_bytes

#: Hive runs its stages on a warm Tez session (paper Section IV-B): the
#: AM and containers are already up, so per-DAG submit/commit overheads
#: are far below a cold MapReduce job's.  Everything else inherits the
#: calibrated engine defaults.
TEZ_SESSION_ENGINE = EngineConfig(
    task_startup_overhead=0.1,
    job_submit_overhead=2.0,
    job_commit_overhead=0.5,
)
#: Seconds Hive spends compiling a query before its first stage job is
#: submitted; the compile hook fires at its end.
COMPILE_TIME = 2.0

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import Cluster

#: Signature of a post-compile hook: (session, query, execution_id, paths).
CompileHook = Callable[["HiveSession", HiveQuery, str, List[str]], None]


def ignem_migration_hook(
    session: "HiveSession",
    query: HiveQuery,
    execution_id: str,
    paths: List[str],
) -> None:
    """The paper's hook: migrate the compiled query's inputs via Ignem."""
    session.cluster.client.migrate(paths, execution_id, implicit_eviction=False)


@dataclass
class QueryResult:
    """Outcome of one query execution."""

    query_id: str
    execution_id: str
    input_bytes: float
    submitted_at: float
    finished_at: float

    @property
    def duration(self) -> float:
        return self.finished_at - self.submitted_at


class HiveSession:
    """Runs HiveQuery objects on a cluster as chained MR jobs."""

    _ids = itertools.count()

    def __init__(
        self,
        cluster: "Cluster",
        hook: Optional[CompileHook] = None,
    ):
        self.cluster = cluster
        self.hook = hook
        self.results: List[QueryResult] = []

    def create_tables(self, names: Optional[Sequence[str]] = None) -> None:
        """Materialize warehouse tables in the DFS (idempotent)."""
        tables = (
            TPCDS_TABLES.values()
            if names is None
            else [TPCDS_TABLES[name] for name in names]
        )
        for table in tables:
            if not self.cluster.client.exists(table.path):
                self.cluster.client.create_file(table.path, table.nbytes)

    def run_query(self, query: HiveQuery) -> Event:
        """Execute ``query``; returns an event yielding a QueryResult."""
        done = self.cluster.env.event()
        self.cluster.env.process(
            self._execute(query, done), name=f"hive-{query.query_id}"
        )
        return done

    def _execute(self, query: HiveQuery, done: Event):
        env = self.cluster.env
        execution_id = f"hive-{query.query_id}-x{next(HiveSession._ids):03d}"
        submitted_at = env.now
        input_paths = [TPCDS_TABLES[name].path for name in query.tables]

        # Compile, then fire the post-compile hook (the Ignem integration
        # point): lead-time starts here, well before the first stage's
        # tasks can possibly run.
        yield env.timeout(COMPILE_TIME)
        self.cluster.rm.register_job(execution_id)
        if self.hook is not None:
            self.hook(self, query, execution_id, input_paths)

        stage_inputs = list(input_paths)
        stage_input_bytes = sum(
            self.cluster.namenode.get_file(path).nbytes for path in stage_inputs
        )
        for index, stage in enumerate(query.stages):
            surviving = stage_input_bytes * stage.selectivity
            spec = JobSpec(
                name=f"{execution_id}-s{index}",
                input_paths=tuple(stage_inputs),
                shuffle_bytes=surviving * stage.shuffle_fraction,
                output_bytes=surviving,
                num_reduces=stage.num_reduces,
                map_cpu_factor=stage.map_cpu_factor,
                reduce_cpu_factor=stage.reduce_cpu_factor,
            )
            # Stage jobs do not re-issue migrate calls: the hook already
            # covered the query's DFS inputs, and intermediates are hot.
            job = self.cluster.engine.submit_job(
                spec, use_ignem=False, config=TEZ_SESSION_ENGINE
            )
            yield job.completed
            stage_inputs = [
                f"/out/{job.job_id}/part-{r:04d}" for r in range(job.num_reduces)
            ]
            stage_input_bytes = surviving

        self.cluster.rm.unregister_job(execution_id)
        self.cluster.client.evict(input_paths, execution_id)

        result = QueryResult(
            query_id=query.query_id,
            execution_id=execution_id,
            input_bytes=query_input_bytes(query),
            submitted_at=submitted_at,
            finished_at=env.now,
        )
        self.results.append(result)
        done.succeed(result)
