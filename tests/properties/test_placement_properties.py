"""Property suite for NameNode replica placement.

The NameNode places a block with one ``rng.sample`` draw over the live
list and keeps it when every pick has room; only a draw that hits a full
node falls back to sampling the capacity-filtered list.  The reference
here is that filtered scan, run on its own RNG with the same seed.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dfs import Block, DataNode, NameNode, NameNodeError
from repro.sim import Environment, RandomSource
from tests.strategies import BLOCK_SIZES, PLACEMENT_CAPACITY, placement_scenarios

#: Fill levels (MB) that leave room for the largest block on every node.
ROOM_EVERYWHERE = (0, 64, 128)
#: Fill levels (MB) that leave room for no block on any node.
FULL_EVERYWHERE = (240, 256)


def build_namenode(scenario) -> NameNode:
    env = Environment()
    namenode = NameNode(
        rng=RandomSource(scenario["seed"]),
        block_size=max(BLOCK_SIZES),
        replication=scenario["replication"],
    )
    for index, node in enumerate(scenario["nodes"]):
        datanode = DataNode(env, f"n{index}", disk_capacity=PLACEMENT_CAPACITY)
        if node["used"]:
            datanode.store_block(Block(f"fill{index}", "/fill", index, node["used"]))
        namenode.register_datanode(datanode)
        if not node["alive"]:
            datanode.fail()
    return namenode


def live_names(scenario, with_room=False):
    return [
        f"n{index}"
        for index, node in enumerate(scenario["nodes"])
        if node["alive"]
        and (
            not with_room
            or node["used"] + scenario["nbytes"] <= PLACEMENT_CAPACITY
        )
    ]


def reference_placement(scenario):
    """The capacity-filtered scan: sample among live nodes with room."""
    rng = RandomSource(scenario["seed"])
    replication = min(scenario["replication"], len(live_names(scenario)))
    names = live_names(scenario, with_room=True)
    preferred = scenario["preferred"]
    if preferred is None or preferred not in names:
        return rng.sample(names, min(replication, len(names)))
    remaining = [name for name in names if name != preferred]
    picks = rng.sample(remaining, min(replication - 1, len(remaining)))
    return [preferred] + picks


def place(scenario):
    """Create a one-block file; returns its replica list in order."""
    namenode = build_namenode(scenario)
    metadata = namenode.create_file(
        "/f",
        scenario["nbytes"],
        preferred_node=scenario["preferred"],
        materialize=False,
    )
    (block,) = metadata.blocks
    return namenode, namenode.get_block_locations(block.block_id)


class TestPlacement:
    @given(placement_scenarios(used=ROOM_EVERYWHERE))
    @settings(max_examples=200, deadline=None)
    def test_draws_match_filtered_scan_when_every_live_node_has_room(
        self, scenario
    ):
        assume(live_names(scenario))
        _, placed = place(scenario)
        assert placed == reference_placement(scenario)

    @given(placement_scenarios())
    @settings(max_examples=200, deadline=None)
    def test_replicas_land_only_on_live_nodes_with_room(self, scenario):
        room = live_names(scenario, with_room=True)
        assume(room)
        _, placed = place(scenario)
        assert len(set(placed)) == len(placed)
        assert set(placed) <= set(room)
        live = live_names(scenario)
        assert len(placed) == min(scenario["replication"], len(live), len(room))

    @given(placement_scenarios(used=FULL_EVERYWHERE))
    @settings(max_examples=100, deadline=None)
    def test_nothing_fits_raises(self, scenario):
        namenode = build_namenode(scenario)
        with pytest.raises(NameNodeError):
            namenode.create_file("/f", scenario["nbytes"], materialize=False)
        assert not namenode.exists("/f")

    @given(placement_scenarios(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_preferred_node_with_room_comes_first(self, scenario, data):
        room = live_names(scenario, with_room=True)
        assume(room)
        preferred = data.draw(st.sampled_from(room), label="preferred")
        scenario = dict(scenario, preferred=preferred)
        _, placed = place(scenario)
        assert placed[0] == preferred
        assert placed == reference_placement(scenario)
