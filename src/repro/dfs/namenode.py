"""NameNode: the DFS master holding the namespace and block map.

Maps files to blocks and blocks to DataNodes, performs replica placement,
and tracks node liveness.  The Ignem master is hosted inside this process
(paper Section III-B) and queries it for block locations.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence

from ..sim.rand import RandomSource
from .blocks import DEFAULT_BLOCK_SIZE, Block, FileMetadata, split_into_blocks
from .datanode import DataNode
from .locality_index import LocalityIndex


class NameNodeError(Exception):
    """Namespace or placement errors (missing paths, no live nodes...)."""


class NameNode:
    """The file-system master.

    Placement policy: replicas go to distinct live nodes chosen uniformly
    at random (with an optional preferred first node, mirroring HDFS's
    writer-local first replica).
    """

    def __init__(
        self,
        rng: Optional[RandomSource] = None,
        block_size: float = DEFAULT_BLOCK_SIZE,
        replication: int = 3,
    ):
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        self.block_size = float(block_size)
        self.replication = replication
        self.rng = rng or RandomSource(0)

        self._datanodes: Dict[str, DataNode] = {}
        self._namespace: Dict[str, FileMetadata] = {}
        self._locations: Dict[str, List[str]] = {}
        #: Cached live-node list, invalidated by membership changes and
        #: DataNode liveness flips (``on_liveness_change``).  A full scan
        #: per query is O(nodes) and shows up hard at 10k nodes.
        self._live_cache: Optional[List[DataNode]] = None
        #: Push-maintained per-tier ``block_id -> nodes`` maps, fed by
        #: DataNode residency deltas; the scheduler subscribes to its
        #: memory-tier deltas (see :mod:`repro.dfs.locality_index`).
        self.locality_index = LocalityIndex()
        #: Read-event listeners, called as ``listener(block, tenant)`` on
        #: every client block read (the heat estimator's feed).  The list
        #: is public so the client can skip the publish call entirely
        #: when nobody subscribed — the zero-overhead clean path.
        self.read_listeners: List[Callable[[Block, Optional[str]], None]] = []

    # -- cluster membership ----------------------------------------------------

    def register_datanode(self, datanode: DataNode) -> None:
        if datanode.name in self._datanodes:
            raise NameNodeError(f"duplicate DataNode name {datanode.name!r}")
        self._datanodes[datanode.name] = datanode
        self._live_cache = None
        datanode.on_liveness_change = self._invalidate_live_cache
        datanode.attach_residency_listener(self._on_residency_delta)

    def _invalidate_live_cache(self) -> None:
        self._live_cache = None

    def datanode(self, name: str) -> DataNode:
        if name not in self._datanodes:
            raise NameNodeError(f"unknown DataNode {name!r}")
        return self._datanodes[name]

    def datanodes(self) -> List[DataNode]:
        return list(self._datanodes.values())

    def live_datanodes(self) -> List[DataNode]:
        """Live DataNodes, in registration order.

        Served from a liveness-invalidated cache; callers must treat the
        returned list as read-only.
        """
        live = self._live_cache
        if live is None:
            live = [dn for dn in self._datanodes.values() if dn.alive]
            self._live_cache = live
        return live

    def remove_datanode(self, name: str) -> None:
        """Drop a dead server from the namespace map (paper III-A5): its
        replica locations disappear from every block's location list."""
        datanode = self._datanodes.pop(name, None)
        self._live_cache = None
        if datanode is not None:
            datanode.detach_residency_listener()
            datanode.on_liveness_change = None
        for block_id, nodes in self._locations.items():
            if name in nodes:
                nodes.remove(name)
        self.locality_index.purge_node(name)

    def add_block_replica(self, block_id: str, node: str) -> None:
        """Register ``node`` as a replica holder (re-replication commit).

        Raises if the block is unknown or the node already holds it —
        the repair machinery must never double-list a holder.
        """
        nodes = self._locations.get(block_id)
        if nodes is None:
            raise NameNodeError(f"unknown block {block_id!r}")
        if node in nodes:
            raise NameNodeError(f"{node} already holds {block_id}")
        nodes.append(node)

    def remove_block_replica(self, block_id: str, node: str) -> None:
        """Forget ``node`` as a holder (excess-replica thinning or a
        rebalance move retiring the donor's copy)."""
        nodes = self._locations.get(block_id)
        if nodes is not None and node in nodes:
            nodes.remove(node)

    def block_replicas(self, block_id: str) -> List[str]:
        """Every registered holder, live or not (unlike
        :meth:`get_block_locations` which filters dead nodes)."""
        return list(self._locations.get(block_id, ()))

    # -- read events -----------------------------------------------------------

    def subscribe_reads(
        self, listener: Callable[[Block, Optional[str]], None]
    ) -> None:
        """Register a read-event listener (``listener(block, tenant)``).

        Listeners observe every block read issued through a
        :class:`~repro.dfs.client.DFSClient` — the access stream the
        popularity-driven migration policy estimates heat from.  With no
        listeners the read path never calls into here.
        """
        if listener not in self.read_listeners:
            self.read_listeners.append(listener)

    def publish_read(self, block: Block, tenant: Optional[str]) -> None:
        """Fan one read event out to every subscribed listener."""
        for listener in self.read_listeners:
            listener(block, tenant)

    def _on_residency_delta(self, node: str, tier: str, key, resident: bool) -> None:
        """Fold one DataNode tier-residency delta into the locality index.

        Buffer caches also hold non-DFS keys (shuffle spills); only keys
        that name a known block enter the index.  Eviction deltas for
        unknown keys are harmless no-ops inside the index.
        """
        if resident and key not in self._locations:
            return
        self.locality_index.update(node, tier, key, resident)

    # -- namespace operations ------------------------------------------------------

    def create_file(
        self,
        path: str,
        nbytes: float,
        replication: Optional[int] = None,
        preferred_node: Optional[str] = None,
        materialize: bool = True,
    ) -> FileMetadata:
        """Create ``path`` with ``nbytes`` of data and place its blocks.

        With ``materialize=True`` block replicas appear directly on the
        chosen DataNodes' disks at no IO cost (dataset generation happens
        before the measured run, as in the paper's setup).
        """
        if path in self._namespace:
            raise NameNodeError(f"path already exists: {path!r}")
        replication = replication or self.replication
        live = self.live_datanodes()
        if len(live) == 0:
            raise NameNodeError("no live DataNodes")
        replication = min(replication, len(live))

        blocks = split_into_blocks(path, nbytes, self.block_size)
        metadata = FileMetadata(path, tuple(blocks), replication=replication)
        self._namespace[path] = metadata

        for block in blocks:
            nodes = self._place_replicas(
                live, replication, preferred_node, block.nbytes
            )
            if not nodes:
                # Nothing fits anywhere: undo the namespace entry and every
                # replica already placed for the file's earlier blocks.
                del self._namespace[path]
                for placed in blocks:
                    for node in self._locations.pop(placed.block_id, ()):
                        self._datanodes[node].drop_block(placed.block_id)
                raise NameNodeError(
                    f"no DataNode has capacity for a block of {path!r}"
                )
            self._locations[block.block_id] = nodes
            if materialize:
                for node in nodes:
                    self._datanodes[node].store_block(block)
        return metadata

    def delete_file(self, path: str) -> None:
        metadata = self._namespace.pop(path, None)
        if metadata is None:
            raise NameNodeError(f"no such path: {path!r}")
        for block in metadata.blocks:
            nodes = self._locations.pop(block.block_id, [])
            for node in nodes:
                datanode = self._datanodes.get(node)
                if datanode is not None:
                    datanode.drop_block(block.block_id)

    def exists(self, path: str) -> bool:
        return path in self._namespace

    def get_file(self, path: str) -> FileMetadata:
        if path not in self._namespace:
            raise NameNodeError(f"no such path: {path!r}")
        return self._namespace[path]

    def list_files(self) -> List[str]:
        return sorted(self._namespace.keys())

    def is_block(self, block_id: str) -> bool:
        """Whether ``block_id`` names a block of any current file."""
        return block_id in self._locations

    def get_block_locations(self, block_id: str) -> List[str]:
        """Live replica locations for a block (dead nodes filtered out)."""
        nodes = self._locations.get(block_id)
        if nodes is None:
            raise NameNodeError(f"unknown block {block_id!r}")
        return [
            node
            for node in nodes
            if node in self._datanodes and self._datanodes[node].alive
        ]

    def memory_locations(self, block_id: str) -> List[str]:
        """Replica holders that would serve ``block_id`` from RAM, in
        replica-placement order.

        O(replicas) set probes against the push-maintained locality index
        — no per-DataNode cache polling (paper Section III-A2's locality
        API, served the way OctopusFS serves tier metadata).
        """
        nodes = self._locations.get(block_id)
        if nodes is None:
            raise NameNodeError(f"unknown block {block_id!r}")
        resident = self.locality_index.nodes(block_id)
        if not resident:
            return []
        return [node for node in nodes if node in resident]

    def memory_nodes(self, block_id: str) -> FrozenSet[str]:
        """Unordered O(1) variant of :meth:`memory_locations`."""
        return self.locality_index.nodes(block_id)

    def file_blocks(self, path: str) -> Sequence[Block]:
        return self.get_file(path).blocks

    def total_bytes(self, paths: Sequence[str]) -> float:
        return sum(self.get_file(path).nbytes for path in paths)

    # -- placement -----------------------------------------------------------------

    def _place_replicas(
        self,
        live: List[DataNode],
        replication: int,
        preferred_node: Optional[str],
        nbytes: float = 0.0,
    ) -> List[str]:
        """Choose ``replication`` distinct live nodes with room for
        ``nbytes``, uniformly at random.

        ``rng.sample``'s draws depend only on the population size and
        ``k``, so when every live node has room, one draw straight from
        the live list picks exactly what a draw from the capacity-filtered
        list would — in O(replication) instead of O(nodes).  Only a draw
        that hits a full node falls back to the filtered scan, whose
        draw then follows the rejected one in the RNG stream.
        """
        if preferred_node is None:
            picks = self.rng.sample(live, min(replication, len(live)))
            # Inlined has_capacity: this runs once per block of every
            # created file.
            for dn in picks:
                if dn.disk_used + nbytes > dn.disk_capacity:
                    break
            else:
                return [dn.name for dn in picks]
        names = [
            dn.name for dn in live if dn.disk_used + nbytes <= dn.disk_capacity
        ]
        if preferred_node is None or preferred_node not in names:
            return self.rng.sample(names, min(replication, len(names)))
        chosen: List[str] = [preferred_node]
        remaining = [name for name in names if name != preferred_node]
        needed = replication - 1
        if needed > 0:
            chosen.extend(self.rng.sample(remaining, min(needed, len(remaining))))
        return chosen
