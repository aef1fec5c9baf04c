"""The master's command retry machine against its closed form (hypothesis).

One migrate command goes to the only holder of a single-block file.  A
drawn loss pattern decides, attempt by attempt, whether the send is
lost.  The command must land (or be abandoned) at exactly the instant
the retry loop defines: each attempt waits ``RPC_LATENCY``, and a lost
attempt waits ``COMMAND_TIMEOUT + COMMAND_BACKOFF *
COMMAND_BACKOFF_FACTOR ** attempt`` before the next one, and after
``COMMAND_MAX_RETRIES`` retries the command is abandoned.
"""

from hypothesis import given, settings, strategies as st

from repro.core.config import (
    COMMAND_BACKOFF,
    COMMAND_BACKOFF_FACTOR,
    COMMAND_MAX_RETRIES,
    COMMAND_TIMEOUT,
    RPC_LATENCY,
)
from repro.sim.process import Process
from repro.storage import MB
from tests.fixtures import make_ignem_cluster


def expected_outcome(start, losses, latency, timeout, backoff, factor, retries):
    """``(outcome, time, retries_paid, attempts)`` of the retry loop.

    Times accumulate one kernel delay at a time, as the event queue adds
    them, so the comparison is exact.
    """
    now = start
    for attempt in range(retries + 1):
        now = now + latency
        if not losses[attempt]:
            return "delivered", now, attempt, attempt + 1
        if attempt >= retries:
            break
        now = now + (timeout + backoff * factor**attempt)
    return "abandoned", now, retries, retries + 1


class _CommandLog:
    """Stands in for the master's observability facade."""

    def __init__(self, env):
        self.env = env
        self.events = []

    def on_master_command(self, what, node, kind, job_id):
        self.events.append((what, self.env.now))


class _LossPattern:
    """rpc_fault hook replaying one drawn loss per attempt."""

    def __init__(self, losses):
        self.losses = list(losses)
        self.calls = 0

    def __call__(self, node):
        lost = self.losses[self.calls]
        self.calls += 1
        return "lost" if lost else None


@st.composite
def retry_plans(draw):
    attempts = COMMAND_MAX_RETRIES + 1
    losses = draw(st.lists(st.booleans(), min_size=attempts, max_size=attempts))
    return {
        "start": draw(st.sampled_from([0.0, 0.1, 3.7])),
        "losses": losses,
        "hooked": any(losses) or draw(st.booleans()),
    }


@given(retry_plans())
@settings(max_examples=80, deadline=None)
def test_retry_machine_matches_the_closed_form(plan):
    cluster = make_ignem_cluster(num_nodes=2, replication=1)
    env = cluster.env
    master = cluster.ignem_master
    log = _CommandLog(env)
    master.obs = log
    pattern = _LossPattern(plan["losses"])
    if plan["hooked"]:
        master.rpc_fault = pattern
    cluster.rm.register_job("j1")
    cluster.client.create_file("/f", 64 * MB)
    if plan["start"] > 0:
        env.run(until=plan["start"])

    delivered = []
    for slave in master.slaves():
        real = slave.receive_migrate

        def spy(command, _real=real):
            delivered.append(env.now)
            return _real(command)

        slave.receive_migrate = spy

    processes = []
    real_init = Process.__init__

    def counting_init(self, *args, **kwargs):
        processes.append(self)
        real_init(self, *args, **kwargs)

    Process.__init__ = counting_init
    scheduled_before = env.events_scheduled
    try:
        master.request_migration(["/f"], "j1")
    finally:
        Process.__init__ = real_init
    scheduled = env.events_scheduled - scheduled_before
    delivered_inline = list(delivered)
    cluster.run()

    outcome, when, retries_paid, attempts = expected_outcome(
        plan["start"],
        plan["losses"],
        RPC_LATENCY,
        COMMAND_TIMEOUT,
        COMMAND_BACKOFF,
        COMMAND_BACKOFF_FACTOR,
        COMMAND_MAX_RETRIES,
    )
    assert processes == []
    # One timer for the first attempt and nothing else; never delivered
    # inside the request that sent it.
    assert delivered_inline == []
    assert scheduled == 1
    assert master.metrics.value("ignem.master.command_retries") == retries_paid
    if plan["hooked"]:
        assert pattern.calls == attempts
    if outcome == "delivered":
        assert delivered == [when]
        assert master.metrics.value("ignem.master.commands_abandoned") == 0
    else:
        assert delivered == []
        # The lone holder is exhausted, so the re-route abandons the block.
        assert ("abandoned", when) in log.events
        assert master.metrics.value("ignem.master.commands_abandoned") == 1
    assert [what for what, _ in log.events].count("retry") == retries_paid
