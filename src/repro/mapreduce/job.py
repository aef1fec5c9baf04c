"""Runtime job object: maps, shuffle, reduces, and per-level metrics."""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from ..dfs.blocks import Block
from ..dfs.client import DFSClient
from ..metrics.collector import MetricsCollector
from ..metrics.records import BlockReadRecord, JobRecord, TaskRecord
from ..net.network import NetworkError
from ..scheduler.containers import TaskRequest
from ..scheduler.resource_manager import ResourceManager
from ..sim.engine import Environment
from ..sim.events import Event, Timeout, join_all
from .spec import (
    MAP_CPU_BYTES_PER_SEC,
    REDUCE_CPU_BYTES_PER_SEC,
    SPECULATIVE_MAX_FRACTION,
    SPECULATIVE_MIN_COMPLETED,
    SPECULATIVE_POLL_INTERVAL,
    EngineConfig,
    JobSpec,
)

#: Shuffle-fetch retry budget before declaring a map output lost.
_SHUFFLE_RETRIES = 3
#: Base backoff between shuffle-fetch retries (linear: 0.25s, 0.5s, ...).
_SHUFFLE_BACKOFF = 0.25


class MRJob:
    """One submitted MapReduce job, from migrate-call to completion.

    Lifecycle (paper Section III-B3):

    1. the *job submitter* runs: it issues the Ignem ``migrate`` call
       (when enabled), optionally sleeps (the Ignem+10s experiment),
       pays the submit overhead, and queues map tasks with the RM;
    2. map tasks read their input block through the DFS client (best
       replica: memory > local disk > remote), compute, and spill their
       shuffle share locally;
    3. when all maps finish, reduce tasks are queued; each fetches its
       shuffle share from every map node, computes, and writes output;
    4. on completion the submitter issues the explicit ``evict`` call.
    """

    _ids = itertools.count()

    def __init__(
        self,
        env: Environment,
        spec: JobSpec,
        client: DFSClient,
        rm: ResourceManager,
        collector: MetricsCollector,
        config: EngineConfig,
        use_ignem: bool = False,
        implicit_eviction: bool = True,
        extra_lead_time: float = 0.0,
        job_id: Optional[str] = None,
    ):
        self.env = env
        self.spec = spec
        self.client = client
        self.rm = rm
        self.collector = collector
        self.config = config
        self.use_ignem = use_ignem
        self.implicit_eviction = implicit_eviction
        self.extra_lead_time = float(extra_lead_time)

        # The engine passes a per-engine id so identically seeded runs name
        # jobs identically (trace determinism); the process-global counter
        # only backs direct MRJob construction.
        self.job_id = (
            job_id if job_id is not None else f"job-{next(MRJob._ids):05d}"
        )
        self.completed: Event = env.event()
        #: Set when the scheduler abandoned one of the job's tasks after
        #: exhausting retries (node churn).  The job still runs to
        #: completion — with partial output, as a real cluster would
        #: surface a failed job — instead of hanging the submitter.
        self.failed = False
        self.submitted_at: Optional[float] = None
        self.first_task_start: Optional[float] = None
        self.finished_at: Optional[float] = None

        self._blocks: List[Block] = []
        for path in spec.input_paths:
            self._blocks.extend(client.open(path).blocks)
        self.input_bytes = sum(block.nbytes for block in self._blocks)
        #: Shuffle bytes produced on each node by that node's map tasks.
        self._map_output_by_node: Dict[str, float] = {}
        #: Per-map first-finisher events (original vs speculative attempt).
        self._map_done_events: List[Event] = []
        self._map_durations: List[float] = []
        #: Number of speculative duplicate attempts launched.
        self.speculative_attempts = 0
        #: Which node holds each committed map's shuffle output.
        self._map_winner_node: Dict[int, str] = {}
        #: One shared recovery event per node whose shuffle output was
        #: lost; its value is the list of nodes holding the re-run output.
        self._map_recoveries: Dict[str, Event] = {}
        self._recovery_seq = 1
        #: Shuffle fetches that failed and had to be retried or recovered.
        self.shuffle_refetches = 0

    # -- public API -----------------------------------------------------------

    @property
    def num_maps(self) -> int:
        return len(self._blocks)

    @property
    def num_reduces(self) -> int:
        if self.spec.shuffle_bytes <= 0 and self.spec.output_bytes <= 0:
            return 0
        return self.spec.num_reduces

    @property
    def duration(self) -> float:
        if self.submitted_at is None or self.finished_at is None:
            raise RuntimeError(f"{self.job_id} has not finished")
        return self.finished_at - self.submitted_at

    def submit(self) -> Event:
        """Start the job-submitter process; returns the completion event."""
        self.env.process(self._submitter(), name=f"submitter-{self.job_id}")
        return self.completed

    # -- submitter -------------------------------------------------------------

    def _submitter(self):
        self.submitted_at = self.env.now
        self.rm.register_job(self.job_id)

        # The migrate call is the *first* thing the submitter does so the
        # slaves get the entire lead-time to work with (paper III-B3).
        if self.use_ignem:
            self.client.migrate(
                list(self.spec.input_paths),
                self.job_id,
                implicit_eviction=self.implicit_eviction,
            )

        # Artificially inserted lead-time (the Ignem+10s experiment,
        # Section IV-F).  The sleep is counted in the job duration.
        if self.extra_lead_time > 0:
            yield Timeout(self.env, self.extra_lead_time)

        if self.config.job_submit_overhead > 0:
            yield Timeout(self.env, self.config.job_submit_overhead)

        self._map_done_events = [Event(self.env) for _ in self._blocks]
        self._map_durations: List[float] = []
        map_tasks = [
            self._make_map_task(index, block, self._map_done_events[index])
            for index, block in enumerate(self._blocks)
        ]
        self.rm.submit_all(map_tasks)
        if self.config.speculative_execution:
            self.env.process(
                self._speculator(map_tasks), name=f"speculator-{self.job_id}"
            )
        yield join_all(self.env, self._map_done_events)

        if self.num_reduces > 0:
            reduce_tasks = [
                self._make_reduce_task(index) for index in range(self.num_reduces)
            ]
            self.rm.submit_all(reduce_tasks)
            try:
                yield join_all(
                    self.env, [task.completed for task in reduce_tasks]
                )
            except Exception:
                # A reduce was abandoned after retry exhaustion (its
                # nodes kept dying): finish the job as failed rather
                # than crash the submitter.
                self.failed = True

        if self.config.job_commit_overhead > 0:
            yield Timeout(self.env, self.config.job_commit_overhead)

        self.finished_at = self.env.now
        self.rm.unregister_job(self.job_id)
        if self.use_ignem:
            # Explicit eviction on completion cleans up any blocks the job
            # never read (implicit eviction already dropped the read ones).
            self.client.evict(list(self.spec.input_paths), self.job_id)

        self.collector.record_job(
            JobRecord(
                job_id=self.job_id,
                name=self.spec.name,
                submitted_at=self.submitted_at,
                first_task_start=(
                    self.first_task_start
                    if self.first_task_start is not None
                    else self.finished_at
                ),
                end=self.finished_at,
                input_bytes=self.input_bytes,
                num_maps=self.num_maps,
                num_reduces=self.num_reduces,
                failed=self.failed,
            )
        )
        self.completed.succeed(self)

    # -- map side ----------------------------------------------------------------

    def _make_map_task(
        self,
        index: int,
        block: Block,
        done: Event,
        attempt: int = 0,
        avoid: Tuple[str, ...] = (),
    ) -> TaskRequest:
        suffix = "" if attempt == 0 else f"-a{attempt}"
        task_id = f"{self.job_id}-m{index:04d}{suffix}"

        def execute(node: str):
            return self._run_map(task_id, index, block, node, done, avoid)

        locations = self.client.namenode.get_block_locations(block.block_id)
        if avoid:
            avoid_set = set(avoid)
            disk_nodes = [
                node for node in locations if node not in avoid_set
            ] or locations
        else:
            disk_nodes = locations
        task = TaskRequest(
            self.env,
            self.job_id,
            task_id,
            "map",
            execute,
            disk_nodes=disk_nodes,
            input_block_id=block.block_id,
        )
        # Failure backstop: when the RM abandons the attempt after
        # exhausting retries, resolve the map's done-event so the
        # submitter's join completes (job marked failed, never hung).
        task.completed.callbacks.append(
            lambda event: self._on_map_abandoned(done) if not event._ok else None
        )
        return task

    def _on_map_abandoned(self, done: Event) -> None:
        self.failed = True
        if not done.triggered:
            done.succeed(None)

    def _speculator(self, map_tasks: List[TaskRequest]):
        """Launch duplicate attempts for straggling maps (Hadoop-style).

        The duplicate and the original race; whichever finishes first
        resolves the map's done-event, and only the winner contributes
        shuffle output.  The loser's work is wasted, as in Hadoop when
        the kill is slower than the task.
        """
        cfg = self.config
        speculated: set = set()
        total = len(map_tasks)
        budget = max(1, int(SPECULATIVE_MAX_FRACTION * total))
        while True:
            if len(speculated) >= budget:
                return
            pending = [
                index
                for index, done in enumerate(self._map_done_events)
                if not done.triggered
            ]
            if not pending:
                return
            threshold_count = SPECULATIVE_MIN_COMPLETED * total
            if len(self._map_durations) >= threshold_count and self._map_durations:
                ordered = sorted(self._map_durations)
                median = ordered[len(ordered) // 2]
                for index in pending:
                    if len(speculated) >= budget:
                        break
                    task = map_tasks[index]
                    if index in speculated or task.started_at is None:
                        continue
                    elapsed = self.env.now - task.started_at
                    if median > 0 and elapsed > cfg.speculative_slowdown * median:
                        speculated.add(index)
                        self.speculative_attempts += 1
                        avoid = (
                            (task.assigned_node,)
                            if task.assigned_node is not None
                            else ()
                        )
                        duplicate = self._make_map_task(
                            index,
                            self._blocks[index],
                            self._map_done_events[index],
                            attempt=1,
                            avoid=avoid,
                        )
                        self.rm.submit(duplicate)
            yield Timeout(self.env, SPECULATIVE_POLL_INTERVAL)

    def _run_map(
        self,
        task_id: str,
        index: int,
        block: Block,
        node: str,
        done: Event,
        avoid: Tuple[str, ...] = (),
    ):
        scheduled_at = self.env.now
        if self.first_task_start is None:
            self.first_task_start = self.env.now

        yield Timeout(self.env, self.config.task_startup_overhead)

        read = self.client.read_block(
            block, node, job_id=self.job_id, avoid=avoid
        )
        read_start = self.env.now
        yield read.done
        self.collector.record_block_read(
            BlockReadRecord(
                job_id=self.job_id,
                task_id=task_id,
                block_id=block.block_id,
                node=read.serving_node,
                source=read.source,
                nbytes=block.nbytes,
                start=read_start,
                end=self.env.now,
            )
        )

        if self.spec.map_cpu_factor > 0 and block.nbytes > 0:
            yield Timeout(
                self.env,
                block.nbytes * self.spec.map_cpu_factor / MAP_CPU_BYTES_PER_SEC,
            )

        # With speculative execution two attempts may race; only the
        # winner commits shuffle output and resolves the map's event.
        winner = not done.triggered
        if winner:
            done.succeed(task_id)
            self._map_durations.append(self.env.now - scheduled_at)

        out_bytes = self._map_output_bytes(block) if winner else 0.0
        if out_bytes > 0:
            datanode = self.client.namenode.datanode(node)
            datanode.cache.write_absorb(("shuffle", task_id), out_bytes)
            self._map_output_by_node[node] = (
                self._map_output_by_node.get(node, 0.0) + out_bytes
            )
            self._map_winner_node[index] = node

        self.collector.record_task(
            TaskRecord(
                job_id=self.job_id,
                task_id=task_id,
                kind="map",
                node=node,
                scheduled_at=scheduled_at,
                start=scheduled_at,
                end=self.env.now,
                input_bytes=block.nbytes,
                output_bytes=out_bytes,
            )
        )

    def _map_output_bytes(self, block: Block) -> float:
        if self.input_bytes <= 0:
            return 0.0
        return self.spec.shuffle_bytes * (block.nbytes / self.input_bytes)

    # -- shuffle recovery -------------------------------------------------------

    def _refetch_shuffle(self, map_node: str, node: str, nbytes: float, task_id: str):
        """Recover one lost shuffle share (Hadoop's fetch-failure path).

        While the source node lives the failure is transient (a lossy
        network window): retry with linear backoff.  Once the source is
        known dead its map outputs are gone with its page cache, so
        re-execute those maps on surviving nodes and fetch the
        regenerated output from wherever the re-runs landed.
        """
        self.shuffle_refetches += 1
        network = self.client.network
        for attempt in range(_SHUFFLE_RETRIES):
            if network.node_is_down(map_node):
                break
            yield Timeout(self.env, _SHUFFLE_BACKOFF * (attempt + 1))
            try:
                yield network.transfer(
                    map_node, node, nbytes, tag=("shuffle", task_id)
                )
                return
            except NetworkError:
                continue
        replacements = yield self._recover_map_outputs(map_node)
        sources = [name for name in replacements if name != node]
        if not sources:
            # Regenerated output is local to this reduce (or the re-runs
            # were abandoned, in which case the job is already failed).
            return
        part = nbytes / len(sources)
        for source in sources:
            try:
                yield network.transfer(
                    source, node, part, tag=("shuffle", task_id)
                )
            except NetworkError:
                # The replacement died too; the run is churning faster
                # than recovery can keep up — surface a failed job
                # rather than recurse indefinitely.
                self.failed = True

    def _recover_map_outputs(self, lost_node: str) -> Event:
        """Re-run the maps whose shuffle output died with ``lost_node``.

        Shared by every reduce that notices the loss: the first caller
        starts the recovery process, later callers wait on the same
        event.  Its value is the sorted list of nodes now holding the
        regenerated output.
        """
        recovery = self._map_recoveries.get(lost_node)
        if recovery is not None:
            return recovery
        recovery = Event(self.env)
        self._map_recoveries[lost_node] = recovery
        indices = sorted(
            index
            for index, winner in self._map_winner_node.items()
            if winner == lost_node
        )
        self._map_output_by_node.pop(lost_node, None)
        for index in indices:
            del self._map_winner_node[index]
        self.env.process(
            self._rerun_maps(lost_node, indices, recovery),
            name=f"map-recovery-{self.job_id}-{lost_node}",
        )
        return recovery

    def _rerun_maps(self, lost_node: str, indices: List[int], recovery: Event):
        done_events = []
        tasks = []
        for index in indices:
            self._recovery_seq += 1
            done = Event(self.env)
            done_events.append((index, done))
            tasks.append(
                self._make_map_task(
                    index,
                    self._blocks[index],
                    done,
                    attempt=self._recovery_seq,
                    avoid=(lost_node,),
                )
            )
        self.rm.submit_all(tasks)
        if done_events:
            # Abandoned re-runs resolve their done-event through
            # _on_map_abandoned (marking the job failed), so this join
            # cannot fail or hang.
            yield join_all(self.env, [done for _, done in done_events])
        recovery.succeed(
            sorted(
                {
                    self._map_winner_node[index]
                    for index, _ in done_events
                    if index in self._map_winner_node
                }
            )
        )

    # -- reduce side --------------------------------------------------------------

    def _make_reduce_task(self, index: int) -> TaskRequest:
        task_id = f"{self.job_id}-r{index:04d}"

        def execute(node: str):
            return self._run_reduce(task_id, index, node)

        return TaskRequest(self.env, self.job_id, task_id, "reduce", execute)

    def _run_reduce(self, task_id: str, index: int, node: str):
        scheduled_at = self.env.now
        yield Timeout(self.env, self.config.task_startup_overhead)

        share = (
            self.spec.shuffle_bytes / self.num_reduces if self.num_reduces else 0.0
        )
        fetches = []
        total_map_output = sum(self._map_output_by_node.values())
        if share > 0 and total_map_output > 0:
            for map_node, produced in self._map_output_by_node.items():
                nbytes = share * (produced / total_map_output)
                if map_node != node and nbytes > 0:
                    fetches.append(
                        (
                            map_node,
                            nbytes,
                            self.client.network.transfer(
                                map_node, node, nbytes, tag=("shuffle", task_id)
                            ),
                        )
                    )
        if fetches:
            try:
                yield join_all(self.env, [event for _, _, event in fetches])
            except NetworkError:
                # At least one map node became unreachable mid-shuffle.
                # Settle every fetch individually: retry transient
                # failures, re-execute the maps of dead sources.
                for map_node, nbytes, event in fetches:
                    try:
                        yield event
                    except NetworkError:
                        yield from self._refetch_shuffle(
                            map_node, node, nbytes, task_id
                        )

        if share > 0 and self.spec.reduce_cpu_factor > 0:
            yield Timeout(
                self.env,
                share
                * self.spec.reduce_cpu_factor
                / REDUCE_CPU_BYTES_PER_SEC
            )

        out_share = (
            self.spec.output_bytes / self.num_reduces if self.num_reduces else 0.0
        )
        if out_share > 0:
            out_path = f"/out/{self.job_id}/part-{index:04d}"
            if self.client.exists(out_path):
                # A previous attempt of this reduce died after creating
                # the file; overwrite like a Hadoop output committer.
                self.client.delete(out_path)
            yield self.client.write_file(
                out_path,
                out_share,
                writer_node=node,
                replication=self.config.output_replication,
            )

        self.collector.record_task(
            TaskRecord(
                job_id=self.job_id,
                task_id=task_id,
                kind="reduce",
                node=node,
                scheduled_at=scheduled_at,
                start=scheduled_at,
                end=self.env.now,
                input_bytes=share,
                output_bytes=out_share,
            )
        )
