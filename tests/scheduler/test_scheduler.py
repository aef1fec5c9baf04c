"""Tests for the heartbeat-driven ResourceManager/NodeManager scheduler."""

import pytest

from repro.dfs import LocalityIndex
from repro.scheduler import NodeManager, ResourceManager, TaskRequest
from repro.scheduler.resource_manager import MAX_TASK_ATTEMPTS
from repro.sim import Environment


def make_cluster(
    env, nodes=2, slots=2, interval=3.0, stagger=0.0, locality_index=None
):
    rm = ResourceManager(env, locality_index=locality_index)
    for index in range(nodes):
        rm.register_node(
            NodeManager(
                env,
                f"n{index}",
                slots=slots,
                heartbeat_interval=interval,
                heartbeat_offset=index * stagger,
            )
        )
    return rm


def simple_task(env, job_id, task_id, duration, log=None, **kwargs):
    def execute(node):
        yield env.timeout(duration)
        if log is not None:
            log.append((task_id, node, env.now))

    return TaskRequest(env, job_id, task_id, "map", execute, **kwargs)


class TestHeartbeatScheduling:
    def test_task_starts_at_first_heartbeat(self):
        env = Environment()
        rm = make_cluster(env, nodes=1, interval=3.0)
        log = []

        def submitter(env):
            yield env.timeout(1.0)
            rm.submit(simple_task(env, "j1", "t1", duration=2.0, log=log))

        env.process(submitter(env))
        env.run()
        # Heartbeats at t=0, 3, 6...; the task (submitted at t=1) starts
        # at t=3 and finishes at t=5.
        assert log == [("t1", "n0", 5.0)]

    def test_queueing_creates_lead_time(self):
        env = Environment()
        rm = make_cluster(env, nodes=1, slots=1, interval=3.0)
        tasks = [simple_task(env, "j1", f"t{i}", duration=10.0) for i in range(2)]

        def submitter(env):
            yield env.timeout(0.5)
            rm.submit_all(tasks)

        env.process(submitter(env))
        env.run()
        # Second task waits for the slot: lead time >> heartbeat interval.
        assert tasks[0].started_at == pytest.approx(3.0)
        assert tasks[1].started_at - tasks[1].submitted_at > 10.0

    def test_slots_limit_concurrency(self):
        env = Environment()
        rm = make_cluster(env, nodes=1, slots=2, interval=1.0)
        tasks = [simple_task(env, "j1", f"t{i}", duration=5.0) for i in range(4)]

        def submitter(env):
            yield env.timeout(0.1)
            rm.submit_all(tasks)

        env.process(submitter(env))
        env.run()
        starts = sorted(t.started_at for t in tasks)
        assert starts[0] == starts[1] == pytest.approx(1.0)
        assert starts[2] >= 6.0

    def test_work_spreads_across_nodes(self):
        env = Environment()
        rm = make_cluster(env, nodes=2, slots=1, interval=1.0)
        log = []
        tasks = [
            simple_task(env, "j1", f"t{i}", duration=5.0, log=log) for i in range(2)
        ]

        def submitter(env):
            yield env.timeout(0.1)
            rm.submit_all(tasks)

        env.process(submitter(env))
        env.run()
        nodes_used = {node for _, node, _ in log}
        assert nodes_used == {"n0", "n1"}

    def test_fifo_order_across_jobs(self):
        env = Environment()
        rm = make_cluster(env, nodes=1, slots=1, interval=1.0)
        log = []

        def submitter(env):
            yield env.timeout(0.1)
            rm.submit(simple_task(env, "j1", "a", duration=1.0, log=log))
            rm.submit(simple_task(env, "j2", "b", duration=1.0, log=log))
            rm.submit(simple_task(env, "j3", "c", duration=1.0, log=log))

        env.process(submitter(env))
        env.run()
        assert [entry[0] for entry in log] == ["a", "b", "c"]

    def test_freed_slot_reused_immediately_on_completion(self):
        env = Environment()
        rm = make_cluster(env, nodes=1, slots=1, interval=100.0)
        log = []
        tasks = [
            simple_task(env, "j1", f"t{i}", duration=1.0, log=log) for i in range(3)
        ]

        def submitter(env):
            yield env.timeout(0.1)
            rm.submit_all(tasks)

        env.process(submitter(env))
        env.run(until=200)
        # Despite a 100s heartbeat, completion-driven scheduling runs all
        # three back-to-back after the first heartbeat at t=100.
        assert len(log) == 3
        assert log[-1][2] == pytest.approx(103.0)


class TestLocality:
    def test_disk_local_task_preferred(self):
        env = Environment()
        rm = make_cluster(env, nodes=2, slots=1, interval=1.0, stagger=0.1)
        log = []
        far = simple_task(env, "j1", "far", duration=5.0, log=log, disk_nodes=["n1"])
        near = simple_task(env, "j1", "near", duration=5.0, log=log, disk_nodes=["n0"])

        def submitter(env):
            yield env.timeout(0.5)
            rm.submit_all([far, near])

        env.process(submitter(env))
        env.run()
        # n0 heartbeats first; although "far" is older, "near" is local.
        assert near.assigned_node == "n0"
        assert far.assigned_node == "n1"

    def test_memory_locality_beats_disk_locality(self):
        env = Environment()
        index = LocalityIndex()
        rm = make_cluster(
            env, nodes=1, slots=1, interval=1.0, locality_index=index
        )
        disk_task = simple_task(
            env, "j1", "disky", duration=1.0, disk_nodes=["n0"]
        )
        mem_task = TaskRequest(
            env,
            "j1",
            "hot",
            "map",
            lambda node: iter(_one_tick(env)),
            disk_nodes=["n9"],
            input_block_id="b-hot",
        )

        def submitter(env):
            yield env.timeout(0.1)
            rm.submit_all([disk_task, mem_task])
            # The migration completes while the task queues.
            index.update("n0", "mem", "b-hot", True)

        env.process(submitter(env))
        env.run()
        assert mem_task.started_at < disk_task.started_at

    def test_memory_nodes_evaluated_lazily(self):
        """Memory locality is read from the index at pick time: an
        eviction delta that lands while the task queues withdraws the
        preference it had at submission."""
        env = Environment()
        index = LocalityIndex()
        index.update("n0", "mem", "b-cold", True)
        rm = make_cluster(
            env, nodes=1, slots=1, interval=1.0, locality_index=index
        )
        disk_task = simple_task(
            env, "j1", "disky", duration=1.0, disk_nodes=["n0"]
        )
        evicted_task = simple_task(
            env, "j1", "evicted", duration=1.0, input_block_id="b-cold"
        )

        def submitter(env):
            yield env.timeout(0.1)
            rm.submit_all([disk_task, evicted_task])
            index.update("n0", "mem", "b-cold", False)

        env.process(submitter(env))
        env.run()
        assert disk_task.started_at < evicted_task.started_at


class TestJobLifecycle:
    def test_job_active_tracking(self):
        env = Environment()
        rm = ResourceManager(env)
        rm.register_job("j1")
        assert rm.job_active("j1")
        rm.unregister_job("j1")
        assert not rm.job_active("j1")
        assert not rm.job_active("never-seen")

    def test_unregister_drops_pending_tasks(self):
        env = Environment()
        rm = make_cluster(env, nodes=1, slots=1, interval=1000.0)
        rm.submit(simple_task(env, "j1", "t1", duration=1.0))
        rm.submit(simple_task(env, "j2", "t2", duration=1.0))
        assert rm.pending_count == 2
        rm.unregister_job("j1")
        assert rm.pending_count == 1


class TestValidation:
    def test_bad_slots_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            NodeManager(env, "n", slots=0)

    def test_bad_interval_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            NodeManager(env, "n", slots=1, heartbeat_interval=0)

    def test_bad_kind_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            TaskRequest(env, "j", "t", "shuffle", lambda node: iter(()))

    def test_duplicate_node_rejected(self):
        env = Environment()
        rm = ResourceManager(env)
        rm.register_node(NodeManager(env, "n0", slots=1))
        with pytest.raises(ValueError):
            rm.register_node(NodeManager(env, "n0", slots=1))


def _one_tick(env):
    yield env.timeout(1.0)


class TestTaskRetry:
    def test_failed_task_retries_on_another_node(self):
        env = Environment()
        rm = make_cluster(env, nodes=2, slots=1, interval=1.0, stagger=0.1)
        attempts = []

        def execute(node):
            attempts.append(node)
            yield env.timeout(1.0)
            if len(attempts) == 1:
                raise RuntimeError("flaky hardware")

        task = TaskRequest(env, "j1", "t1", "map", execute)
        rm.register_job("j1")

        def submitter(env):
            yield env.timeout(0.1)
            rm.submit(task)

        env.process(submitter(env))
        env.run()
        assert len(attempts) == 2
        assert attempts[0] != attempts[1]  # excluded from the failing node
        assert rm.tasks_retried == 1
        assert task.completed.triggered and task.completed.ok

    def test_task_abandoned_after_max_attempts(self):
        env = Environment()
        rm = ResourceManager(env)
        # One node more than the attempt cap, so the cap (not running
        # out of untried nodes) is what abandons the task.
        for index in range(MAX_TASK_ATTEMPTS + 1):
            rm.register_node(
                NodeManager(env, f"n{index}", slots=1, heartbeat_interval=1.0)
            )
        rm.register_job("j1")

        def execute(node):
            yield env.timeout(0.5)
            raise RuntimeError("always broken")

        task = TaskRequest(env, "j1", "t1", "map", execute)
        failures = []

        def waiter(env):
            try:
                yield task.completed
            except RuntimeError as err:
                failures.append(str(err))

        rm.submit(task)
        env.process(waiter(env))
        env.run()
        assert task.attempts == MAX_TASK_ATTEMPTS
        assert rm.tasks_abandoned == 1
        assert failures == ["always broken"]

    def test_node_failure_interrupts_running_containers(self):
        env = Environment()
        rm = make_cluster(env, nodes=2, slots=1, interval=1.0, stagger=0.1)
        log = []

        def execute(node):
            log.append(("start", node, env.now))
            yield env.timeout(30.0)
            log.append(("end", node, env.now))

        task = TaskRequest(env, "j1", "t1", "map", execute)
        rm.register_job("j1")

        def chaos(env):
            yield env.timeout(0.1)
            rm.submit(task)
            yield env.timeout(5.0)
            victim = next(n for n in rm.nodes() if n.name == task.assigned_node)
            victim.fail()

        env.process(chaos(env))
        env.run()
        starts = [entry for entry in log if entry[0] == "start"]
        ends = [entry for entry in log if entry[0] == "end"]
        assert len(starts) == 2  # original + retry
        assert len(ends) == 1  # only the retry ran to completion
        assert ends[0][1] != starts[0][1]

    def test_retry_skipped_for_torn_down_jobs(self):
        env = Environment()
        rm = make_cluster(env, nodes=1, slots=1, interval=1.0)

        def execute(node):
            yield env.timeout(1.0)
            raise RuntimeError("crash after job teardown")

        task = TaskRequest(env, "ghost-job", "t1", "map", execute)
        rm.submit(task)  # note: job never registered -> not active
        env.run()
        assert rm.tasks_retried == 0
        assert task.attempts == 1

    def test_invalid_max_attempts_rejected(self):
        # The attempt cap is the constant MAX_TASK_ATTEMPTS, not a
        # parameter: passing one is rejected outright.
        env = Environment()
        with pytest.raises(TypeError):
            ResourceManager(env, max_task_attempts=0)
