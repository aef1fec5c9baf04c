"""Property test: the ResourceManager's bucket pick vs a FIFO scan.

The RM answers "which pending task runs on this node?" from per-node
candidate buckets kept in sync with task enqueue/dequeue and with the
memory-locality index's residency deltas.  Its docstring claims this
reproduces the pick order of the plain three-pass scan over the FIFO
queue: memory-local first, then disk-local, then the oldest task.  Here both
run the same generated scenario through real heartbeats, and every
launch — task, node, time, attempt — must match.
"""

from hypothesis import given, settings

from repro.dfs import LocalityIndex
from repro.scheduler import NodeManager, ResourceManager, TaskRequest
from repro.sim import Environment
from tests.strategies import locality_scenarios

#: Heartbeats keep polling while a task no node may run is pending, so
#: every run stops at a fixed horizon.
HORIZON = 60.0


class ScanResourceManager(ResourceManager):
    """The reference: three passes over the FIFO queue on every pick."""

    def _pick_task(self, node_name):
        index = self._locality_index
        queue = [t for t in self._pending if node_name not in t.excluded_nodes]

        def memory_nodes(task):
            if task.input_block_id is None:
                return frozenset()
            return index.nodes(task.input_block_id)

        for task in queue:
            if node_name in memory_nodes(task):
                return task
        for task in queue:
            if node_name in task.disk_nodes:
                return task
        return queue[0] if queue else None


def run_scenario(rm_class, scenario):
    """Drive ``scenario`` through an RM; returns the log of launches and
    task outcomes."""
    env = Environment()
    index = LocalityIndex()
    rm = rm_class(env, locality_index=index)
    for position, name in enumerate(scenario["nodes"]):
        rm.register_node(
            NodeManager(
                env,
                name,
                slots=scenario["slots"],
                heartbeat_interval=1.0,
                heartbeat_offset=0.25 * position,
            )
        )
    rm.register_job("j")
    launches = []

    def make_task(number, spec):
        failed = []

        def execute(node):
            launches.append((env.now, number, node, len(failed)))
            yield env.timeout(spec["duration"])
            if spec["fails_first"] and not failed:
                failed.append(node)
                raise RuntimeError("first attempt dies")

        task = TaskRequest(
            env,
            "j",
            f"t{number}",
            "map",
            execute,
            disk_nodes=spec["disk_nodes"],
            input_block_id=spec["block"],
        )
        task.excluded_nodes.update(spec["excluded"])
        # Log how the task ends; the callback also marks an abandoned
        # task's failure (no node left to retry on) as handled.
        task.completed.callbacks.append(
            lambda event: launches.append((env.now, number, event.ok))
        )
        return task

    batches = {}
    for number, spec in enumerate(scenario["tasks"]):
        batches.setdefault(spec["submit_at"], []).append(make_task(number, spec))

    def submitter(env):
        for at in sorted(batches):
            yield env.timeout(at - env.now)
            rm.submit_all(batches[at])

    def residency(env):
        for at, node, block, resident in sorted(
            scenario["deltas"], key=lambda delta: delta[0]
        ):
            yield env.timeout(at - env.now)
            index.update(node, "mem", block, resident)

    env.process(submitter(env))
    env.process(residency(env))
    env.run(until=HORIZON)
    return launches


class TestBucketPickMatchesScan:
    @given(locality_scenarios())
    @settings(max_examples=150, deadline=None)
    def test_identical_launches(self, scenario):
        assert run_scenario(ResourceManager, scenario) == run_scenario(
            ScanResourceManager, scenario
        )
