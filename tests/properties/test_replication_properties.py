"""Property-based tests for self-healing replication (hypothesis).

The headline property: after *any* interleaving of permanent kills,
fresh joins, and the repairs they trigger, a fully drained cluster ends
with every surviving block (at least one live replica) holding exactly
``min(replication, live_nodes)`` live replicas, no two of which share a
node.  Blocks that lose every replica to overlapping kills are data
loss, exempted here and judged by the data-loss invariant's own rules.
"""

from hypothesis import example, given, settings, strategies as st

from tests.fixtures import make_dfs_cluster
from repro.storage import MB


@st.composite
def elasticity_scripts(draw):
    """A random cluster shape, file set, and kill/join interleaving.

    Ops carry raw draws (delay, kind, victim index); the runner resolves
    the index against the membership at fire time, so every generated
    script is applicable to whatever topology the earlier ops produced.
    """
    num_nodes = draw(st.integers(min_value=2, max_value=4))
    replication = draw(st.integers(min_value=1, max_value=min(3, num_nodes)))
    files = [
        (f"/prop/file-{i}", draw(st.integers(1, 3)) * 64 * MB)
        for i in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        ops.append(
            (
                draw(st.floats(min_value=0.5, max_value=30.0)),
                draw(st.sampled_from(("kill", "join"))),
                draw(st.integers(min_value=0, max_value=7)),
            )
        )
    return num_nodes, replication, files, ops


def _apply_script(cluster, ops):
    """Fire the ops at their drawn times from inside the simulation."""

    def driver():
        now = 0.0
        for delay, kind, index in ops:
            at = now + delay
            yield cluster.env.timeout(at - now)
            now = at
            if kind == "join":
                cluster.add_datanode()
                continue
            victims = [
                name
                for name in sorted(cluster.datanodes)
                if cluster.datanodes[name].alive
                and name not in cluster.released_nodes
            ]
            # Never kill the last node standing: an empty cluster has
            # nothing left to assert about.
            if len(victims) >= 2:
                cluster.fail_node(victims[index % len(victims)])

    cluster.env.process(driver(), name="elasticity-script")


class TestReplicationConvergence:
    @given(elasticity_scripts())
    @settings(max_examples=30, deadline=None)
    # Two joins rebalance the same block off the same donor at once; the
    # later move must thin the extra copy even though every replica sits
    # in its node's page cache after the write.
    @example(
        (
            3,
            2,
            [
                ("/prop/file-0", 64 * MB),
                ("/prop/file-1", 64 * MB),
                ("/prop/file-2", 128 * MB),
            ],
            [(1.0, "kill", 0), (1.0, "join", 0), (1.0, "join", 0)],
        )
    )
    def test_surviving_blocks_converge_to_min_rep_live(self, script):
        num_nodes, replication, files, ops = script
        cluster = make_dfs_cluster(
            num_nodes=num_nodes, replication=replication
        )
        for path, nbytes in files:
            cluster.client.create_file(path, nbytes)
        _apply_script(cluster, ops)
        cluster.run()  # full drain: every repair chain settles

        namenode = cluster.namenode
        live_nodes = len(namenode.live_datanodes())
        for path in namenode.list_files():
            metadata = namenode.get_file(path)
            target = min(metadata.replication, live_nodes)
            for block in metadata.blocks:
                holders = namenode.block_replicas(block.block_id)
                assert len(holders) == len(set(holders)), (
                    f"{block.block_id} lists a holder twice: {holders}"
                )
                live = namenode.get_block_locations(block.block_id)
                if not live:
                    continue  # lost to overlapping kills: data loss,
                    # exempt here (judged by the no_data_loss oracle)
                assert len(live) == target, (
                    f"{block.block_id} ended with {len(live)} live "
                    f"replica(s), want {target} "
                    f"(rep={metadata.replication}, {live_nodes} live)"
                )

    @given(elasticity_scripts())
    @settings(max_examples=15, deadline=None)
    def test_interleaving_replays_deterministically(self, script):
        num_nodes, replication, files, ops = script

        def run():
            cluster = make_dfs_cluster(
                num_nodes=num_nodes, replication=replication
            )
            for path, nbytes in files:
                cluster.client.create_file(path, nbytes)
            _apply_script(cluster, ops)
            cluster.run()
            namenode = cluster.namenode
            return (
                cluster.env.now,
                cluster.metrics.counter("dfs.repair.copies_completed").value,
                {
                    block.block_id: sorted(
                        namenode.get_block_locations(block.block_id)
                    )
                    for path in namenode.list_files()
                    for block in namenode.get_file(path).blocks
                },
            )

        assert run() == run()
