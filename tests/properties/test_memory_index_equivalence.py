"""Index-vs-brute-force equivalence under a live SWIM workload.

The memory-locality index claims an invariant (see
``repro.dfs.locality_index``): at every point in simulated time, for every
block, ``locality_index.nodes(block_id)`` equals the brute-force
recomputation obtained by probing each replica holder's buffer cache.
This test drives a small Ignem SWIM run — migrations pinning blocks in,
reads caching them, implicit and explicit evictions dropping them — and
checks the invariant at fixed wall-of-simulated-time checkpoints and
again after the workload drains.
"""

from repro.cluster import build_paper_testbed
from repro.core.config import IgnemConfig
from repro.mapreduce.spec import EngineConfig
from repro.storage.device import GB
from repro.workloads import swim


def _assert_index_matches_brute_force(namenode):
    index = namenode.locality_index
    seen = index.blocks()
    for block_id, nodes in namenode._locations.items():
        expected = {
            node
            for node in nodes
            if node in namenode._datanodes
            and namenode.datanode(node).block_in_memory(block_id)
        }
        assert index.nodes(block_id) == expected, block_id
        if not expected:
            assert block_id not in seen
    # No phantom entries for blocks the namespace does not know about.
    for block_id in seen:
        assert block_id in namenode._locations


def test_index_equals_brute_force_throughout_a_swim_run():
    cluster = build_paper_testbed(
        seed=3, engine_config=EngineConfig(output_replication=1)
    )
    cluster.enable_ignem(IgnemConfig(buffer_capacity=4 * GB))
    jobs = swim.SwimGenerator(seed=3).generate(num_jobs=12)
    swim.materialize(cluster, jobs)
    specs, arrivals = swim.to_specs(jobs)
    done = cluster.engine.run_workload(specs, arrivals, implicit_eviction=True)

    env = cluster.env
    checkpoints = 0
    while not done.processed and env.peek() != float("inf"):
        env.run(until=env.now + 10.0)
        _assert_index_matches_brute_force(cluster.namenode)
        checkpoints += 1
        assert checkpoints < 10_000, "workload failed to finish"

    assert done.processed
    # The run must actually have been observed mid-flight, not just at
    # the end (otherwise the invariant check would be vacuous).
    assert checkpoints >= 5
    _assert_index_matches_brute_force(cluster.namenode)
