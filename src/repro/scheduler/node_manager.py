"""NodeManager: per-server container execution and heartbeating."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Optional

from ..sim.engine import Environment
from ..sim.events import Event
from .containers import TaskRequest

if TYPE_CHECKING:  # pragma: no cover
    from .resource_manager import ResourceManager


#: Heartbeat period of the paper's testbed NodeManagers (Section IV-A).
HEARTBEAT_INTERVAL = 3.0


class NodeManager:
    """Runs task containers on one server and heartbeats to the RM.

    The heartbeat is the only moment the RM can hand this node work —
    exactly the scalability-driven design whose multi-second cadence gives
    Ignem its lead-time (paper Section II-C1).  Heartbeats stay on a fixed
    absolute grid (``offset + k * interval``); while the cluster has no
    pending work the loop parks so a finished simulation can drain, but
    waking never shifts the grid, so queueing delays are unaffected.
    """

    def __init__(
        self,
        env: Environment,
        name: str,
        slots: int,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        heartbeat_offset: float = 0.0,
    ):
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat interval must be positive, got {heartbeat_interval}"
            )
        self.env = env
        self.name = name
        self.slots = slots
        self.heartbeat_interval = float(heartbeat_interval)
        self.heartbeat_offset = float(heartbeat_offset)
        self.free_slots = slots
        self.alive = True
        self._rm: Optional["ResourceManager"] = None
        self._wake: Optional[Event] = None
        self._next_beat = 0  # index k of the next heartbeat on the grid
        self._running: dict = {}  # task_id -> inner task Process
        #: Heartbeat-loop generation: bumped on restart so a parked
        #: pre-failure loop can never double-beat alongside the new one.
        self._hb_generation = 0

    def attach(self, rm: "ResourceManager") -> None:
        """Register with the RM and start heartbeating."""
        self._rm = rm
        self.env.process(self._heartbeat_loop(), name=f"nm-{self.name}-heartbeat")

    def notify_work(self) -> None:
        """Un-park the heartbeat loop (called by the RM on task submit)."""
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()

    def launch(self, task: TaskRequest) -> None:
        """Start a container for ``task`` (called by the RM at heartbeat)."""
        if self.free_slots <= 0:
            raise RuntimeError(f"{self.name} has no free slots")
        if not self.alive:
            raise RuntimeError(f"{self.name} is dead")
        self.free_slots -= 1
        task.assigned_node = self.name
        task.started_at = self.env.now
        task.attempts += 1
        self.env.process(self._container(task), name=f"container-{task.task_id}")

    def fail(self) -> None:
        """Stop heartbeating and kill every running container; their
        tasks fail and the RM retries them elsewhere."""
        self.alive = False
        for process in list(self._running.values()):
            if process.is_alive:
                process.interrupt(cause=f"node {self.name} failed")
        self.notify_work()

    def restart(self) -> None:
        """Restart the NodeManager on the same server, all slots free."""
        if self.alive:
            return
        self.alive = True
        self.free_slots = self.slots
        self._running.clear()
        self._hb_generation += 1
        self.env.process(
            self._heartbeat_loop(self._hb_generation),
            name=f"nm-{self.name}-heartbeat",
        )

    def _container(self, task: TaskRequest):
        # The task body runs inside the container process itself
        # (``yield from``) rather than in a second wrapped process: one
        # Process and one Initialize event per task is pure overhead, and
        # interrupts delivered to the container reach the delegated task
        # frame exactly as they reached the worker process before.
        self._running[task.task_id] = self.env.active_process
        error: Optional[BaseException] = None
        try:
            yield from task.execute(self.name)
        except BaseException as raised:  # task crashed or was interrupted
            error = raised
        finally:
            self._running.pop(task.task_id, None)
            # Clamped: a container dying across a fail()/restart() cycle
            # must not push the freshly reset slot count past capacity.
            self.free_slots = min(self.slots, self.free_slots + 1)
        if self._rm is None:
            if error is None and not task.completed.triggered:
                task.completed.succeed(None)
            return
        if error is None:
            if not task.completed.triggered:
                task.completed.succeed(None)
            self._rm.on_task_finished(task, self)
        else:
            self._rm.on_task_failed(task, self, error)

    def _heartbeat_loop(self, generation: int = 0):
        while self.alive and generation == self._hb_generation:
            if self._rm is None or self._rm.pending_count == 0:
                self._wake = Event(self.env)
                if self._rm is not None:
                    self._rm.on_node_parked(self)
                yield self._wake
                self._wake = None
                continue
            when = self._next_heartbeat_time()
            if when > self.env.now:
                yield self.env.pooled_timeout(when - self.env.now)
            if not self.alive:
                break
            self._rm.on_heartbeat(self)

    def _next_heartbeat_time(self) -> float:
        """Next grid point ``offset + k * interval`` not before now, with a
        monotone beat index so repeated beats at one instant cannot occur."""
        now = self.env.now
        if now > self.heartbeat_offset:
            due = math.ceil(
                (now - self.heartbeat_offset) / self.heartbeat_interval - 1e-9
            )
        else:
            due = 0
        k = max(self._next_beat, due)
        self._next_beat = k + 1
        return self.heartbeat_offset + k * self.heartbeat_interval

    def __repr__(self) -> str:
        return f"<NodeManager {self.name} free={self.free_slots}/{self.slots}>"
