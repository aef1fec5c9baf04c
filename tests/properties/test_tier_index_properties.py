"""Property suite for the tier-aware locality index.

Three guarantees the index must hold:

1. a replica is indexed in at most ONE tier of a node at any time (a
   block moving up retracts from the tier it left);
2. inserting a fresh replica and then evicting it restores the exact
   prior occupancy — across every tier, not just the touched one;
3. its memory view — the ``block -> nodes`` map and the listener
   delta stream the scheduler's candidate buckets consume — matches a
   plain dict-of-sets model of memory residency.
"""

from hypothesis import given, settings

from repro.dfs.locality_index import LocalityIndex

from tests.strategies import tier_deltas


def _apply(index: LocalityIndex, step) -> None:
    if step[0] == "purge":
        index.purge_node(step[1])
    else:
        _, node, tier, block, resident = step
        index.update(node, tier, block, resident)


def _occupancy(index: LocalityIndex, tiers) -> dict:
    """Full observable state: tier -> {block -> frozenset(nodes)}."""
    return {tier: index.blocks(tier) for tier in tiers}


class TestOneTierPerReplica:
    @given(tier_deltas())
    @settings(max_examples=200, deadline=None)
    def test_replica_never_indexed_in_two_tiers_of_one_node(self, script):
        tiers, steps = script
        index = LocalityIndex()
        for step in steps:
            _apply(index, step)
            for block in {s[3] for s in steps if s[0] == "update"}:
                for node in {s[1] for s in steps}:
                    holding = [
                        tier
                        for tier in tiers
                        if node in index.nodes(block, tier)
                    ]
                    assert len(holding) <= 1, (block, node, holding)
                    if holding:
                        assert index.tier_of(block, node) == holding[0]
                    else:
                        assert index.tier_of(block, node) is None


class TestEvictionRestoresOccupancy:
    @given(tier_deltas(num_blocks=4))
    @settings(max_examples=200, deadline=None)
    def test_insert_then_evict_fresh_replica_is_identity(self, script):
        tiers, steps = script
        index = LocalityIndex()
        for step in steps:
            _apply(index, step)
        before = _occupancy(index, tiers)

        # A replica no step ever touched is fresh by construction.
        node, block = "nodeX", "blk-fresh"
        for tier in tiers:
            index.update(node, tier, block, True)
            assert node in index.nodes(block, tier)
            index.update(node, tier, block, False)
            assert _occupancy(index, tiers) == before, tier


class MemoryModel:
    """Reference memory residency: a dict of sets, one delta per change."""

    def __init__(self):
        self.holders = {}
        self.stream = []

    def update(self, node, block, resident):
        holders = self.holders.get(block, set())
        if resident == (node in holders):
            return
        if resident:
            self.holders[block] = holders | {node}
        else:
            holders.discard(node)
            if not holders:
                del self.holders[block]
        self.stream.append((block, node, resident))

    def purge(self, node):
        for block in [b for b, held in self.holders.items() if node in held]:
            self.update(node, block, False)

    def view(self):
        return {block: frozenset(held) for block, held in self.holders.items()}


class TestTwoTierEquivalence:
    @given(tier_deltas(tiers=("mem",)))
    @settings(max_examples=200, deadline=None)
    def test_single_tier_index_matches_memory_index(self, script):
        _, steps = script
        index = LocalityIndex()
        model = MemoryModel()
        stream = []
        index.add_listener(
            lambda block, node, resident: stream.append((block, node, resident))
        )

        for step in steps:
            _apply(index, step)
            if step[0] == "purge":
                model.purge(step[1])
            else:
                _, node, _, block, resident = step
                model.update(node, block, resident)
            assert index.blocks() == model.view()
            assert stream == model.stream
