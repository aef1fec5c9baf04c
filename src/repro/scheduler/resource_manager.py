"""ResourceManager: cluster-wide FIFO task scheduling over heartbeats."""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Set

from ..dfs.memory_index import MemoryLocalityIndex
from ..sim.engine import Environment
from .containers import TaskRequest
from .node_manager import NodeManager


class _NodeBucket:
    """Per-node scheduling candidates, ordered by queue position.

    A lazy-deletion min-heap over ``(queue_pos, task)`` plus a live
    membership set: adds push a fresh heap entry; removals only touch the
    membership set and stale heap entries are skipped (and popped) when
    they surface at the top.  Queue positions are globally unique, so two
    distinct tasks never compare and heap entries never tie-break on the
    task object itself.
    """

    __slots__ = ("heap", "members")

    def __init__(self) -> None:
        self.heap: list = []
        self.members: Dict[TaskRequest, None] = {}

    def add(self, task: TaskRequest, pos: int) -> None:
        if task in self.members:
            return
        self.members[task] = None
        heappush(self.heap, (pos, task))

    def discard(self, task: TaskRequest) -> None:
        self.members.pop(task, None)


class ResourceManager:
    """Hands queued tasks to nodes when they heartbeat.

    Scheduling policy (per heartbeat, per free slot), in order:

    1. a pending task whose input is *in memory* on this node (the
       migrated-replica locality preference of paper Section III-A2);
    2. a pending task with an on-disk replica on this node (classic HDFS
       data locality);
    3. the oldest pending task (FIFO across jobs).

    Tasks only start at heartbeats — the queueing plus heartbeat latency
    is precisely the lead-time Ignem exploits.

    ``locality_wait`` enables delay scheduling (Zaharia et al.): a task
    that has locality *somewhere* is held back from non-local placement
    until it has waited at least that long, at the cost of slot idling.
    The default of 0 disables it (plain Hadoop FIFO behaviour).

    **Candidate buckets.**  A task's memory locality is the set of nodes
    the memory-locality index reports for its ``input_block_id`` (a
    cluster passes its NameNode's index; a standalone RM owns an empty
    one).  The RM keeps per-node candidate buckets — one memory-local,
    one disk-local — updated on task enqueue/dequeue and on the index's
    residency deltas, so a pick costs O(candidates on this node) rather
    than three O(pending) scans.  Every bucket lookup returns the minimum
    queue position, which is the first match a FIFO scan of the queue
    would find; ``tests/properties/test_scheduler_pick_properties.py``
    checks the pick order against such a scan.
    """

    def __init__(
        self,
        env: Environment,
        locality_wait: float = 0.0,
        max_task_attempts: int = 3,
        locality_index: Optional[MemoryLocalityIndex] = None,
    ):
        if locality_wait < 0:
            raise ValueError("locality_wait must be non-negative")
        if max_task_attempts < 1:
            raise ValueError("max_task_attempts must be >= 1")
        self.env = env
        self.locality_wait = float(locality_wait)
        self.max_task_attempts = max_task_attempts
        self._nodes: Dict[str, NodeManager] = {}
        #: Registration index per node name, fixing the wake order.
        self._node_index: Dict[str, int] = {}
        #: Heartbeat loops currently parked on an idle queue, keyed by
        #: registration index.  Submitting work wakes only these — the
        #: historical notify-everyone loop was O(nodes) per submit, which
        #: dominates at trace scale — in registration order, so the wake
        #: event sequence is identical to notifying every node (waking a
        #: non-parked node was always a no-op).
        self._parked: Dict[int, NodeManager] = {}
        #: FIFO queue: task -> queue position.  Python dicts preserve
        #: insertion order, so iteration order == ascending position.
        self._pending: Dict[TaskRequest, int] = {}
        self._qpos = 0
        self._active_jobs: Set[str] = set()
        #: Push-maintained block -> in-RAM-nodes index.
        if locality_index is None:
            locality_index = MemoryLocalityIndex()
        self._locality_index = locality_index
        locality_index.add_listener(self._on_memory_delta)
        #: Per-node candidate buckets.
        self._mem_buckets: Dict[str, _NodeBucket] = {}
        self._disk_buckets: Dict[str, _NodeBucket] = {}
        #: Reverse map for translating index deltas into bucket updates.
        self._tasks_by_block: Dict[str, Dict[TaskRequest, None]] = {}
        self.tasks_launched = 0
        self.tasks_finished = 0
        self.tasks_retried = 0
        self.tasks_abandoned = 0
        #: Observability facade; ``None`` is the zero-overhead clean path.
        self.obs = None

    # -- cluster membership -------------------------------------------------------

    def register_node(self, node: NodeManager) -> None:
        if node.name in self._nodes:
            raise ValueError(f"duplicate NodeManager name {node.name!r}")
        self._node_index[node.name] = len(self._node_index)
        self._nodes[node.name] = node
        node.attach(self)

    def nodes(self) -> List[NodeManager]:
        return list(self._nodes.values())

    def on_node_parked(self, node: NodeManager) -> None:
        """A heartbeat loop went idle; remember it for targeted wakes."""
        self._parked[self._node_index[node.name]] = node

    def _notify_parked(self) -> None:
        """Wake every parked heartbeat loop, in registration order."""
        parked = self._parked
        if not parked:
            return
        self._parked = {}
        if len(parked) == len(self._nodes):
            # Everyone is parked: the registry is already in order.
            for node in self._nodes.values():
                node.notify_work()
            return
        for index in sorted(parked):
            parked[index].notify_work()

    # -- job lifecycle -------------------------------------------------------------

    def register_job(self, job_id: str) -> None:
        """Mark a job live (Ignem's leak cleanup queries this, III-A4)."""
        self._active_jobs.add(job_id)

    def unregister_job(self, job_id: str) -> None:
        self._active_jobs.discard(job_id)
        # Drop any of the job's tasks that never started (job killed).
        for task in [t for t in self._pending if t.job_id == job_id]:
            self._dequeue(task)

    def job_active(self, job_id: str) -> bool:
        """The liveness probe Ignem slaves use to purge leaked references."""
        return job_id in self._active_jobs

    # -- task queueing ---------------------------------------------------------------

    def submit(self, task: TaskRequest) -> None:
        """Queue one task; it will start at some node's future heartbeat."""
        task.submitted_at = self.env.now
        self._enqueue(task)
        self._notify_parked()

    def submit_all(self, tasks: List[TaskRequest]) -> None:
        """Queue a batch of tasks with a single notification round.

        Notifying after each task would wake every node once per task;
        notify_work on an already-woken node is a no-op, so enqueueing
        the whole batch first and notifying once is equivalent.
        """
        now = self.env.now
        for task in tasks:
            task.submitted_at = now
            self._enqueue(task)
        if tasks:
            self._notify_parked()

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def _enqueue(self, task: TaskRequest) -> None:
        self._qpos += 1
        pos = self._qpos
        self._pending[task] = pos
        for node in task.disk_nodes:
            bucket = self._disk_buckets.get(node)
            if bucket is None:
                bucket = self._disk_buckets[node] = _NodeBucket()
            bucket.add(task, pos)
        block_id = task.input_block_id
        if block_id is not None:
            self._tasks_by_block.setdefault(block_id, {})[task] = None
            for node in self._locality_index.nodes(block_id):
                bucket = self._mem_buckets.get(node)
                if bucket is None:
                    bucket = self._mem_buckets[node] = _NodeBucket()
                bucket.add(task, pos)

    def _dequeue(self, task: TaskRequest) -> None:
        del self._pending[task]
        for node in task.disk_nodes:
            bucket = self._disk_buckets.get(node)
            if bucket is not None:
                bucket.discard(task)
        block_id = task.input_block_id
        if block_id is not None:
            tasks = self._tasks_by_block.get(block_id)
            if tasks is not None:
                tasks.pop(task, None)
                if not tasks:
                    del self._tasks_by_block[block_id]
            for node in self._locality_index.nodes(block_id):
                bucket = self._mem_buckets.get(node)
                if bucket is not None:
                    bucket.discard(task)

    def _on_memory_delta(self, block_id: str, node: str, resident: bool) -> None:
        """Index listener: keep the memory-local buckets in sync."""
        tasks = self._tasks_by_block.get(block_id)
        if not tasks:
            return
        if resident:
            bucket = self._mem_buckets.get(node)
            if bucket is None:
                bucket = self._mem_buckets[node] = _NodeBucket()
            pending = self._pending
            for task in tasks:
                bucket.add(task, pending[task])
        else:
            bucket = self._mem_buckets.get(node)
            if bucket is not None:
                for task in tasks:
                    bucket.discard(task)

    # -- heartbeat-driven scheduling ---------------------------------------------------

    def on_heartbeat(self, node: NodeManager) -> None:
        if not node.alive:
            return
        while node.free_slots > 0 and self._pending:
            task = self._pick_task(node.name)
            if task is None:
                break
            self._dequeue(task)
            self.tasks_launched += 1
            if self.obs is not None:
                self.obs.on_task_launch(task, node.name)
            node.launch(task)

    def on_task_finished(self, task: TaskRequest, node: NodeManager) -> None:
        self.tasks_finished += 1
        # Work-conserving touch: the freed slot can immediately take more
        # work at this same instant (mimics NM heartbeating on completion,
        # which Hadoop does to reduce slot idling).
        self.on_heartbeat(node)

    def on_task_failed(
        self, task: TaskRequest, node: NodeManager, error: BaseException
    ) -> None:
        """A container died (task crash or node failure): retry the task
        on a different node, up to ``max_task_attempts`` total attempts."""
        task.excluded_nodes.add(node.name)
        if not self.job_active(task.job_id):
            return  # the job was torn down; nothing to retry for
        live_nodes = {n.name for n in self._nodes.values() if n.alive}
        no_home_left = live_nodes <= task.excluded_nodes
        if task.attempts >= self.max_task_attempts or no_home_left:
            self.tasks_abandoned += 1
            if not task.completed.triggered:
                task.completed.fail(error)
            return
        self.tasks_retried += 1
        self._enqueue(task)
        self._notify_parked()
        if node.alive:
            self.on_heartbeat(node)

    # -- task picking -------------------------------------------------------------------

    def _pick_task(self, node_name: str) -> Optional[TaskRequest]:
        """Bucket-backed pick: identical order to a FIFO scan, O(candidates)."""
        # Pass 1: memory locality (migrated replicas).
        task = self._bucket_min(self._mem_buckets.get(node_name), node_name)
        if task is not None:
            return task
        # Pass 2: disk locality.
        task = self._bucket_min(self._disk_buckets.get(node_name), node_name)
        if task is not None:
            return task
        # Pass 3: FIFO, optionally gated by delay scheduling.
        locality_wait = self.locality_wait
        if locality_wait <= 0:
            for task in self._pending:
                if node_name not in task.excluded_nodes:
                    return task
            return None
        now = self.env.now
        index = self._locality_index
        for task in self._pending:
            if node_name in task.excluded_nodes:
                continue
            block_id = task.input_block_id
            has_locality = bool(task.disk_nodes) or (
                block_id is not None and bool(index.nodes(block_id))
            )
            submitted = task.submitted_at
            waited = 0.0 if submitted is None else now - submitted
            if has_locality and waited < locality_wait:
                continue
            return task
        return None

    def _bucket_min(
        self, bucket: Optional[_NodeBucket], node_name: str
    ) -> Optional[TaskRequest]:
        """First eligible task in queue order, skipping stale heap entries.

        An entry is stale when the task left the bucket's membership set
        (dequeued, or an eviction delta removed its locality) or was
        re-enqueued under a newer position.  Exclusions are per-node and
        monotone, so excluded tasks are dropped permanently.
        """
        if bucket is None:
            return None
        heap = bucket.heap
        members = bucket.members
        pending = self._pending
        while heap:
            pos, task = heap[0]
            if task not in members or pending.get(task) != pos:
                heappop(heap)
                continue
            if node_name in task.excluded_nodes:
                heappop(heap)
                del members[task]
                continue
            return task
        return None
