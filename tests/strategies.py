"""Shared Hypothesis strategies for the property and DST test suites.

Every suite used to define its own composites inline; the generators
below are the single home so new property tests (and DST-adjacent
fuzzing) sample the same shapes: migration work items, migrate/evict
scripts, device transfer plans, scheduler workloads, scheduler locality
scenarios, and fault events.
"""

from hypothesis import strategies as st

from repro.core.commands import MigrationWorkItem
from repro.dfs.blocks import Block
from repro.faults import FaultEvent
from repro.faults.schedule import FAULT_KINDS
from repro.storage import MB

#: The block sizes the paper testbed (and the DST generator) uses.
BLOCK_SIZES = (32 * MB, 64 * MB, 128 * MB)

block_sizes = st.sampled_from(BLOCK_SIZES)


@st.composite
def work_items(draw):
    """A random migration work item over a handful of jobs."""
    job = draw(st.integers(min_value=0, max_value=5))
    return MigrationWorkItem(
        block=Block(f"b{draw(st.integers(0, 100))}", "/f", 0, 64 * MB),
        job_id=f"j{job}",
        job_input_bytes=draw(st.floats(min_value=1.0, max_value=1e12)),
        job_submitted_at=draw(st.floats(min_value=0.0, max_value=1e6)),
        implicit_eviction=draw(st.booleans()),
        order_hint=draw(st.integers(min_value=0, max_value=1000)),
    )


@st.composite
def migration_scripts(draw):
    """A random interleaving of migrate/evict requests over a few files."""
    steps = []
    num_files = draw(st.integers(min_value=1, max_value=4))
    for step in range(draw(st.integers(min_value=1, max_value=10))):
        file_index = draw(st.integers(min_value=0, max_value=num_files - 1))
        action = draw(st.sampled_from(["migrate", "evict", "wait"]))
        steps.append((action, file_index, draw(st.floats(0.1, 20.0))))
    return num_files, steps


@st.composite
def transfer_plans(draw):
    """A list of (start_delay, nbytes) transfer requests."""
    count = draw(st.integers(min_value=1, max_value=8))
    plan = []
    for _ in range(count):
        delay = draw(st.floats(min_value=0.0, max_value=5.0))
        nbytes = draw(st.floats(min_value=1.0, max_value=512.0)) * MB
        plan.append((delay, nbytes))
    return plan


#: Tier rosters the tier-index property suite samples from.
TIER_ROSTERS = (("mem",), ("mem", "ssd"), ("mem", "ssd", "flash"))


@st.composite
def tier_deltas(draw, tiers=None, num_nodes=3, num_blocks=6, max_steps=40):
    """A random residency-delta script for the tier locality index.

    Returns ``(tiers, steps)`` where each step is either
    ``("update", node, tier, block, resident)`` or ``("purge", node)``.
    """
    roster = tuple(tiers) if tiers is not None else draw(
        st.sampled_from(TIER_ROSTERS)
    )
    steps = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_steps))):
        if draw(st.integers(0, 9)) == 0:
            steps.append(
                ("purge", f"node{draw(st.integers(0, num_nodes - 1))}")
            )
            continue
        steps.append(
            (
                "update",
                f"node{draw(st.integers(0, num_nodes - 1))}",
                draw(st.sampled_from(roster)),
                f"blk{draw(st.integers(0, num_blocks - 1))}",
                draw(st.booleans()),
            )
        )
    return roster, steps


#: Per-node disk capacity in placement scenarios.
PLACEMENT_CAPACITY = 256 * MB


@st.composite
def placement_scenarios(draw, used=(0, 64, 128, 192, 224, 256)):
    """A small cluster's disk fill and liveness plus one block to place.

    Each node's used space is drawn from ``used`` (MB, out of
    :data:`PLACEMENT_CAPACITY`).  Returns a dict with ``nodes`` (each
    ``{"used": bytes, "alive": bool}``), ``nbytes``, ``replication``,
    ``preferred`` (a node name or ``None``) and ``seed``.
    """
    num_nodes = draw(st.integers(min_value=1, max_value=12))
    nodes = [
        {
            "used": draw(st.sampled_from(used)) * MB,
            "alive": draw(st.integers(0, 4)) > 0,
        }
        for _ in range(num_nodes)
    ]
    preferred = draw(
        st.one_of(st.none(), st.integers(min_value=0, max_value=num_nodes - 1))
    )
    return {
        "nodes": nodes,
        "nbytes": draw(block_sizes),
        "replication": draw(st.integers(min_value=1, max_value=4)),
        "preferred": None if preferred is None else f"n{preferred}",
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
    }


@st.composite
def scheduler_workloads(draw):
    """Random (nodes, slots, tasks) scheduling scenarios."""
    num_nodes = draw(st.integers(min_value=1, max_value=4))
    slots = draw(st.integers(min_value=1, max_value=3))
    tasks = []
    for index in range(draw(st.integers(min_value=1, max_value=12))):
        tasks.append(
            {
                "submit_at": draw(st.floats(min_value=0.0, max_value=20.0)),
                "duration": draw(st.floats(min_value=0.1, max_value=8.0)),
                "fails_first": draw(st.booleans()),
            }
        )
    return num_nodes, slots, tasks


@st.composite
def locality_scenarios(draw):
    """Random scheduling scenarios with disk and memory locality.

    Tasks read one of two blocks (or none), carry on-disk replica nodes
    and an occasional per-node exclusion, and arrive in a few batches
    at positive times.  Memory residency comes as intervals — a block
    enters a node's memory and may leave it again later — so residency
    deltas, evictions included, land while tasks wait.
    """
    num_nodes = draw(st.integers(min_value=2, max_value=3))
    nodes = [f"n{index}" for index in range(num_nodes)]
    blocks = ("b0", "b1")
    times = st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.7, 5.0, 6.6, 8.0, 9.3))
    tasks = []
    for _ in range(draw(st.integers(min_value=1, max_value=16))):
        tasks.append(
            {
                "submit_at": draw(st.sampled_from((0.5, 1.25, 3.0, 6.5))),
                "duration": draw(st.sampled_from((1.0, 2.5, 4.0))),
                "disk_nodes": sorted(
                    draw(st.sets(st.sampled_from(nodes), max_size=2))
                ),
                "block": draw(st.one_of(st.none(), st.sampled_from(blocks))),
                "excluded": sorted(
                    draw(st.sets(st.sampled_from(nodes), max_size=1))
                ),
                "fails_first": draw(st.booleans()),
            }
        )
    deltas = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        node = draw(st.sampled_from(nodes))
        block = draw(st.sampled_from(blocks))
        start = draw(times)
        deltas.append((start, node, block, True))
        stay = draw(st.one_of(st.none(), st.sampled_from((0.5, 1.5, 3.0))))
        if stay is not None:
            deltas.append((start + stay, node, block, False))
    return {
        "nodes": nodes,
        "slots": draw(st.integers(min_value=1, max_value=2)),
        "tasks": tasks,
        "deltas": deltas,
    }


@st.composite
def fault_events(draw, num_nodes=4, horizon=60.0):
    """One well-formed fault event aimed at a node0..nodeN cluster."""
    kind = draw(st.sampled_from(FAULT_KINDS))
    target = None
    param = None
    if kind in ("crash", "restart", "slow_disk_start", "slow_disk_end"):
        target = f"node{draw(st.integers(0, num_nodes - 1))}"
    if kind == "slow_disk_start":
        param = draw(st.floats(min_value=0.05, max_value=0.9))
    elif kind == "net_loss_start":
        param = draw(st.floats(min_value=0.1, max_value=1.0))
    return FaultEvent(
        time=draw(st.floats(min_value=0.0, max_value=horizon)),
        kind=kind,
        target=target,
        param=param,
    )
