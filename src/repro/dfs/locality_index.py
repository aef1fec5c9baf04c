"""Locality index: which nodes hold each block in each upper tier.

Historically every locality query re-derived in-memory replica locations
by probing each replica holder's buffer cache (`O(replicas)` RPCs per
block per query).  The scheduler issues one such query per pending task
per free slot per heartbeat, which made locality lookups ~70% of a SWIM
run's wall-clock.  This module replaces the poll with a push: DataNodes
publish per-tier residency *deltas* (insert/evict, including the
implicit mass-eviction of a node failure) and the NameNode-resident
index folds them into one ``block_id -> frozenset(node names)`` map per
tier, so ``memory_locations()`` becomes a dictionary lookup.

This mirrors how tiered-storage file systems (e.g. OctopusFS) maintain
per-tier block metadata at the master instead of polling storage nodes.

Downstream consumers (the scheduler's per-node candidate buckets)
subscribe to one tier's deltas via :meth:`LocalityIndex.add_listener`.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..storage.tiers import MEM

#: Shared empty result — the overwhelmingly common case for cold blocks.
EMPTY_NODES: FrozenSet[str] = frozenset()

#: Listener signature: ``listener(block_id, node, resident)``.
DeltaListener = Callable[[str, str, bool], None]


class LocalityIndex:
    """Incrementally maintained per-tier map of upper-tier block replicas.

    Invariants (checked by the property suites):

    * for every tier and block, ``nodes(block_id, tier)`` equals the
      brute-force recomputation over the replica holders' tier caches at
      every point in simulated time;
    * a replica (block, node) is indexed in at most one tier.  The
      physical model backs this — a migration moves the replica's
      resident copy — so a delta landing a replica in a new tier first
      retracts it from the tier it occupied (firing that tier's
      listeners) before inserting it into the new one.
    """

    __slots__ = ("_by_tier", "_mem", "_listeners", "_tier_of")

    def __init__(self) -> None:
        self._by_tier: Dict[str, Dict[str, FrozenSet[str]]] = {}
        self._listeners: Dict[str, List[DeltaListener]] = {}
        #: (block_id, node) -> tier currently holding that replica.
        self._tier_of: Dict[Tuple[str, str], str] = {}
        #: The memory tier's map, held directly for the scheduler's
        #: one-lookup fast path.
        self._mem = self._tier(MEM)

    def _tier(self, tier: str) -> Dict[str, FrozenSet[str]]:
        blocks = self._by_tier.get(tier)
        if blocks is None:
            blocks = self._by_tier[tier] = {}
            self._listeners[tier] = []
        return blocks

    # -- queries ---------------------------------------------------------------

    def nodes(self, block_id: str, tier: str = MEM) -> FrozenSet[str]:
        """Nodes currently holding ``block_id`` in ``tier`` (O(1))."""
        if tier == MEM:
            return self._mem.get(block_id, EMPTY_NODES)
        blocks = self._by_tier.get(tier)
        return EMPTY_NODES if blocks is None else blocks.get(block_id, EMPTY_NODES)

    def tier_of(self, block_id: str, node: str) -> Optional[str]:
        """The upper tier holding this replica, or ``None`` if it only
        exists on the node's backing store."""
        return self._tier_of.get((block_id, node))

    def blocks(self, tier: str = MEM) -> Dict[str, FrozenSet[str]]:
        """Snapshot of one tier's ``block -> nodes`` map (for tests and
        the invariant oracle)."""
        return dict(self._by_tier.get(tier, ()))

    # -- delta intake -----------------------------------------------------------

    def add_listener(self, listener: DeltaListener, tier: str = MEM) -> None:
        """Subscribe to ``tier``'s residency deltas (fired after the index
        updates)."""
        self._tier(tier)
        self._listeners[tier].append(listener)

    def update(self, node: str, tier: str, block_id: str, resident: bool) -> None:
        """Fold one residency delta from ``node``'s tier ``tier``.

        Idempotent: re-announcing an already-known state is a no-op and
        fires no listener, so callers need not dedupe.
        """
        key = (block_id, node)
        if resident:
            current = self._tier_of.get(key)
            if current is not None and current != tier:
                self._set(current, node, block_id, False)
            self._tier_of[key] = tier
            self._tier(tier)
            self._set(tier, node, block_id, True)
        else:
            if self._tier_of.get(key) == tier:
                del self._tier_of[key]
            if tier in self._by_tier:
                self._set(tier, node, block_id, False)

    def _set(self, tier: str, node: str, block_id: str, resident: bool) -> None:
        blocks = self._by_tier[tier]
        current = blocks.get(block_id, EMPTY_NODES)
        if resident:
            if node in current:
                return
            blocks[block_id] = current | {node}
        else:
            if node not in current:
                return
            remaining = current - {node}
            if remaining:
                blocks[block_id] = remaining
            else:
                del blocks[block_id]
        for listener in self._listeners[tier]:
            listener(block_id, node, resident)

    def purge_node(self, node: str) -> None:
        """Drop every entry for ``node`` across all tiers.

        Node *failure* needs no special handling — the dying DataNode
        flushes its caches, which publishes per-block eviction deltas —
        but removing a node from the namespace map must scrub entries
        even if the server process is still up.
        """
        for tier, blocks in self._by_tier.items():
            stale = [block_id for block_id, nodes in blocks.items() if node in nodes]
            for block_id in stale:
                self._set(tier, node, block_id, False)
        for key in [key for key in self._tier_of if key[1] == node]:
            del self._tier_of[key]

    def __repr__(self) -> str:
        counts = {tier: len(blocks) for tier, blocks in self._by_tier.items()}
        return f"<LocalityIndex {counts}>"
