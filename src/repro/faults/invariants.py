"""Replica-count checks shared by the fault injector and the DST oracles.

* :func:`data_loss_violations` — blocks of a ``replication >= 2`` file
  with zero live replicas while fewer nodes are down than the
  replication factor tolerates.  The injector calls it at every crash
  instant; the ``no_data_loss`` oracle calls it again at end of run.
* :func:`replication_violations` — blocks left under-replicated or
  listing a holder twice; the ``replication`` oracle's whole check.

Violations are human-readable strings; an empty list means the
guarantee held.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set

if TYPE_CHECKING:  # pragma: no cover
    from ..dfs.namenode import NameNode


def data_loss_violations(
    namenode: "NameNode", down_nodes: Set[str], when: float
) -> List[str]:
    """Blocks that lost every live replica although their replication
    factor should have tolerated the current number of down nodes."""
    violations: List[str] = []
    concurrent_down = len(down_nodes)
    for path in namenode.list_files():
        metadata = namenode.get_file(path)
        if metadata.replication < 2 or concurrent_down >= metadata.replication:
            # Replication 1 has no failure tolerance to guarantee, and
            # losing as many nodes as there are replicas may legitimately
            # take out all of them.
            continue
        for block in metadata.blocks:
            if not namenode.get_block_locations(block.block_id):
                violations.append(
                    f"data loss: {block.block_id} ({path}) has zero live "
                    f"replicas at t={when:.3f} with only {concurrent_down} "
                    f"node(s) down and replication={metadata.replication}"
                )
    return violations


def replication_violations(namenode: "NameNode", when: float) -> List[str]:
    """Blocks left under-replicated (or double-listed) at ``when``.

    The target is capped by the live-node count — a 3-node cluster with
    one node down cannot hold 3 replicas of anything, and that is not
    the repair machinery's fault.  Blocks with zero live replicas are
    data loss, judged separately by :func:`data_loss_violations`.
    """
    violations: List[str] = []
    live_nodes = len(namenode.live_datanodes())
    for path in namenode.list_files():
        metadata = namenode.get_file(path)
        target = min(metadata.replication, live_nodes)
        for block in metadata.blocks:
            holders = namenode.block_replicas(block.block_id)
            if len(holders) != len(set(holders)):
                violations.append(
                    f"replication: {block.block_id} ({path}) lists a "
                    f"holder twice ({holders}) at t={when:.3f}"
                )
            live = namenode.get_block_locations(block.block_id)
            if 0 < len(live) < target:
                violations.append(
                    f"under-replication: {block.block_id} ({path}) has "
                    f"{len(live)} live replica(s) but needs {target} "
                    f"(replication={metadata.replication}, "
                    f"{live_nodes} live nodes) at t={when:.3f}"
                )
    return violations
