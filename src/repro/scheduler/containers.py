"""Task requests: the unit of work the cluster scheduler places on nodes."""

from __future__ import annotations

import itertools
from typing import Callable, FrozenSet, Generator, Iterable, Optional

from ..sim.engine import Environment
from ..sim.events import Event


class TaskRequest:
    """One schedulable task.

    Parameters
    ----------
    env:
        Simulation environment.
    job_id, task_id, kind:
        Identity; ``kind`` is ``"map"`` or ``"reduce"``.
    execute:
        ``execute(node_name)`` returns the generator that performs the
        task's work once a container on ``node_name`` starts it.
    disk_nodes:
        Nodes holding an on-disk replica of this task's input (static).
    input_block_id:
        The DFS block this task reads, when it reads exactly one.  The
        ResourceManager's memory-locality index tracks which nodes hold
        it in memory as migrations land and evictions happen while the
        task queues (paper Section III-A2's migrated-locality preference).
    """

    _seq = itertools.count()

    def __init__(
        self,
        env: Environment,
        job_id: str,
        task_id: str,
        kind: str,
        execute: Callable[[str], Generator],
        disk_nodes: Iterable[str] = (),
        input_block_id: Optional[str] = None,
    ):
        if kind not in ("map", "reduce"):
            raise ValueError(f"kind must be 'map' or 'reduce', got {kind!r}")
        self.env = env
        self.job_id = job_id
        self.task_id = task_id
        self.kind = kind
        self.execute = execute
        self.disk_nodes: FrozenSet[str] = frozenset(disk_nodes)
        self.input_block_id = input_block_id

        #: Monotone sequence used for FIFO ordering across jobs.
        self.seq = next(TaskRequest._seq)
        #: When the scheduler first saw the task.
        self.submitted_at: Optional[float] = None
        #: When a container started executing it.
        self.started_at: Optional[float] = None
        #: Node it ran on.
        self.assigned_node: Optional[str] = None
        #: How many attempts have been launched so far.
        self.attempts = 0
        #: Nodes where an attempt failed; the scheduler avoids them.
        self.excluded_nodes: set = set()
        #: Triggers when the task finishes (fails after the scheduler
        #: gives up retrying).
        self.completed: Event = env.event()

    def __repr__(self) -> str:
        return f"<TaskRequest {self.task_id} ({self.kind}) of {self.job_id}>"
