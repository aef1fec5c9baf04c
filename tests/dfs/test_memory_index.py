"""Unit tests for the push-maintained locality index (memory view)."""

import pytest

from repro.dfs.locality_index import EMPTY_NODES, LocalityIndex


class TestIndexCore:
    def test_starts_empty(self):
        index = LocalityIndex()
        assert index.nodes("blk-0") == frozenset()
        assert index.blocks() == {}

    def test_miss_returns_shared_empty_frozenset(self):
        index = LocalityIndex()
        assert index.nodes("blk-0") is EMPTY_NODES
        assert index.nodes("blk-1") is EMPTY_NODES
        assert index.nodes("blk-0", "ssd") is EMPTY_NODES

    def test_insert_and_query(self):
        index = LocalityIndex()
        index.update("node0", "mem", "blk-0", True)
        index.update("node2", "mem", "blk-0", True)
        index.update("node1", "mem", "blk-1", True)
        assert index.nodes("blk-0") == {"node0", "node2"}
        assert index.nodes("blk-1") == {"node1"}
        assert len(index.blocks()) == 2

    def test_eviction_removes_node(self):
        index = LocalityIndex()
        index.update("node0", "mem", "blk-0", True)
        index.update("node1", "mem", "blk-0", True)
        index.update("node0", "mem", "blk-0", False)
        assert index.nodes("blk-0") == {"node1"}

    def test_last_eviction_drops_the_entry(self):
        index = LocalityIndex()
        index.update("node0", "mem", "blk-0", True)
        index.update("node0", "mem", "blk-0", False)
        assert index.blocks() == {}
        assert index.nodes("blk-0") is EMPTY_NODES

    def test_updates_are_idempotent(self):
        index = LocalityIndex()
        index.update("node0", "mem", "blk-0", True)
        index.update("node0", "mem", "blk-0", True)
        assert index.nodes("blk-0") == {"node0"}
        index.update("node0", "mem", "blk-0", False)
        index.update("node0", "mem", "blk-0", False)
        assert index.nodes("blk-0") == frozenset()

    def test_eviction_of_unknown_block_is_noop(self):
        index = LocalityIndex()
        index.update("node0", "mem", "blk-unknown", False)
        index.update("node0", "ssd", "blk-unknown", False)
        assert index.blocks() == {}
        assert index.blocks("ssd") == {}

    def test_purge_node_scrubs_only_that_node(self):
        index = LocalityIndex()
        index.update("node0", "mem", "blk-0", True)
        index.update("node1", "mem", "blk-0", True)
        index.update("node0", "mem", "blk-1", True)
        index.purge_node("node0")
        assert index.nodes("blk-0") == {"node1"}
        assert index.nodes("blk-1") == frozenset()

    def test_listener_fires_only_on_real_changes(self):
        index = LocalityIndex()
        deltas = []
        index.add_listener(lambda bid, node, res: deltas.append((bid, node, res)))
        index.update("node0", "mem", "blk-0", True)
        index.update("node0", "mem", "blk-0", True)  # duplicate: no delta
        index.update("node0", "ssd", "blk-1", True)  # other tier: no delta
        index.update("node0", "mem", "blk-0", False)
        index.update("node0", "mem", "blk-0", False)  # duplicate: no delta
        assert deltas == [("blk-0", "node0", True), ("blk-0", "node0", False)]


class TestNameNodeWiring:
    """End-to-end: DataNode cache deltas flow into the NameNode index."""

    @pytest.fixture
    def blocks(self, namenode):
        meta = namenode.create_file("/data/f", 3 * namenode.block_size)
        return meta.blocks

    def _brute_force(self, namenode, block_id):
        return {
            node
            for node in namenode.get_block_locations(block_id)
            if namenode.datanode(node).block_in_memory(block_id)
        }

    def test_cache_insert_appears_in_memory_locations(self, namenode, blocks):
        block = blocks[0]
        holder = namenode.get_block_locations(block.block_id)[0]
        namenode.datanode(holder).cache.insert(block.block_id, block.nbytes)
        assert namenode.memory_locations(block.block_id) == [holder]
        assert namenode.memory_nodes(block.block_id) == {holder}
        assert self._brute_force(namenode, block.block_id) == {holder}

    def test_cache_evict_disappears(self, namenode, blocks):
        block = blocks[0]
        holder = namenode.get_block_locations(block.block_id)[0]
        datanode = namenode.datanode(holder)
        datanode.cache.insert(block.block_id, block.nbytes)
        datanode.cache.evict(block.block_id)
        assert namenode.memory_locations(block.block_id) == []
        assert self._brute_force(namenode, block.block_id) == set()

    def test_non_block_cache_keys_are_not_indexed(self, namenode, blocks):
        # Shuffle spills share the buffer cache but are not DFS blocks.
        holder = namenode.get_block_locations(blocks[0].block_id)[0]
        namenode.datanode(holder).cache.insert(("shuffle", "t-0"), 1024.0)
        assert namenode.locality_index.blocks() == {}

    def test_node_failure_flushes_its_entries(self, namenode, blocks):
        block = blocks[0]
        holder = namenode.get_block_locations(block.block_id)[0]
        datanode = namenode.datanode(holder)
        datanode.cache.insert(block.block_id, block.nbytes)
        datanode.fail()
        assert holder not in namenode.memory_nodes(block.block_id)

    def test_remove_datanode_purges_index(self, namenode, blocks):
        block = blocks[0]
        holder = namenode.get_block_locations(block.block_id)[0]
        namenode.datanode(holder).cache.insert(block.block_id, block.nbytes)
        namenode.remove_datanode(holder)
        assert holder not in namenode.memory_nodes(block.block_id)
