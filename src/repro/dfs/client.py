"""DFSClient: how applications talk to the file system.

Performs namespace operations against the NameNode and data operations
against DataNodes, choosing replicas with memory-then-locality preference.
The paper extends exactly this class with a ``migrate`` method (Section
III-B3); when an Ignem master is attached, :meth:`migrate` and
:meth:`evict` forward to it via (simulated) RPC.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..net.network import Network
from ..sim.engine import Environment
from ..sim.events import Event, join_all
from ..sim.rand import RandomSource
from .blocks import Block, FileMetadata
from .namenode import NameNode, NameNodeError


class ClientRead:
    """An in-flight block read issued through the client."""

    __slots__ = ("done", "source", "serving_node", "block")

    def __init__(self, done: Event, source: str, serving_node: str, block: Block):
        self.done = done
        self.source = source
        self.serving_node = serving_node
        self.block = block


class DFSClient:
    """File-system client used by job submitters and tasks.

    Parameters
    ----------
    env, namenode, network:
        The substrate this client talks to.
    rng:
        Randomness for replica choice (tie-breaking among equally good
        replicas), seeded per experiment.
    """

    def __init__(
        self,
        env: Environment,
        namenode: NameNode,
        network: Network,
        rng: Optional[RandomSource] = None,
    ):
        self.env = env
        self.namenode = namenode
        self.network = network
        self.rng = rng or RandomSource(0)
        #: Set by the Ignem master when migration is enabled.
        self.ignem_master = None
        #: Control-plane transport (set by the cluster): migrate/evict
        #: ship to its ``"master"`` endpoint as protocol messages.
        #: Data-plane reads stay direct: the replica-choice hot path is
        #: performance-critical at trace scale.
        self.transport = None
        #: Observability facade; ``None`` is the zero-overhead clean path.
        self.obs = None

    # -- namespace operations ---------------------------------------------------

    def create_file(
        self,
        path: str,
        nbytes: float,
        replication: Optional[int] = None,
        preferred_node: Optional[str] = None,
    ) -> FileMetadata:
        """Create a fully materialized file (dataset generation)."""
        return self.namenode.create_file(
            path, nbytes, replication=replication, preferred_node=preferred_node
        )

    def open(self, path: str) -> FileMetadata:
        return self.namenode.get_file(path)

    def exists(self, path: str) -> bool:
        return self.namenode.exists(path)

    def delete(self, path: str) -> None:
        self.namenode.delete_file(path)

    # -- reads ---------------------------------------------------------------------

    def memory_locations(self, block: Block) -> List[str]:
        """Replica nodes that would serve this block from RAM right now.

        This is the locality-preference API of paper Section III-A2: big
        data file systems let tasks query input locations; Ignem extends
        the answer with migrated (in-memory) locations.  Served from the
        NameNode's push-maintained locality index — no DataNode polling.
        """
        return self.namenode.memory_locations(block.block_id)

    def read_block(
        self,
        block: Block,
        reader_node: str,
        job_id: Optional[str] = None,
        avoid: Sequence[str] = (),
        tenant: Optional[str] = None,
    ) -> ClientRead:
        """Read one block from the best replica.

        Preference order (paper Sections III-A2/III-A3):

        1. an in-memory replica on the reader's own node;
        2. an in-memory replica on a remote node (RAM read + network);
        3. an on-disk replica on the reader's own node;
        4. an on-disk replica on a random remote node (disk + network).

        ``avoid`` de-prioritizes replicas on the named nodes (used by
        speculative task attempts to dodge a straggling server); they are
        still used when no alternative exists.  ``tenant`` labels the
        access for the NameNode's read-event listeners (the heat
        estimator's per-tenant attribution); it defaults to ``job_id``.
        """
        if self.namenode.read_listeners:
            self.namenode.publish_read(
                block, tenant if tenant is not None else job_id
            )
        locations = self.namenode.get_block_locations(block.block_id)
        if not locations:
            raise NameNodeError(f"no live replicas for {block.block_id}")
        if avoid:
            avoid = set(avoid)
            preferred = [node for node in locations if node not in avoid]
            if preferred:
                locations = preferred

        resident = self.namenode.memory_nodes(block.block_id)
        in_memory = (
            [node for node in locations if node in resident] if resident else []
        )

        if in_memory:
            serving = reader_node if reader_node in in_memory else self.rng.choice(
                sorted(in_memory)
            )
        elif reader_node in locations:
            serving = reader_node
        else:
            serving = self.rng.choice(sorted(locations))

        datanode = self.namenode.datanode(serving)
        handle = datanode.read_block(block, job_id=job_id)

        if serving == reader_node:
            done = handle.done
        else:
            # Counting the NIC legs here spares the pair join that
            # Network.transfer would queue in between (DESIGN.md §8).
            legs = self.network.transfer_legs(
                serving, reader_node, block.nbytes, tag=("read", block.block_id)
            )
            done = join_all(self.env, (handle.done, *legs))
        if self.obs is not None:
            self.obs.on_dfs_read(handle.source, serving, reader_node, block, done)
        return ClientRead(done, handle.source, serving, block)

    # -- writes -------------------------------------------------------------------

    def write_file(
        self,
        path: str,
        nbytes: float,
        writer_node: str,
        replication: Optional[int] = None,
    ) -> Event:
        """Write a new file from ``writer_node``; returns a done event.

        Replicas are absorbed by each target's buffer cache (write-back
        flushing happens in the background) while the replication pipeline
        to remote replicas crosses the network synchronously — writes feel
        fast but still generate real disk and network traffic.
        """
        metadata = self.namenode.create_file(
            path,
            nbytes,
            replication=replication,
            preferred_node=writer_node,
            materialize=False,
        )
        pending: List[Event] = []
        for block in metadata.blocks:
            for node in self.namenode.get_block_locations(block.block_id):
                self.namenode.datanode(node).absorb_write(block)
                if node != writer_node:
                    # The copy's own legs, not a join of them: one join
                    # for the whole pipeline.
                    pending.extend(
                        self.network.transfer_legs(
                            writer_node, node, block.nbytes, tag=("write", path)
                        )
                    )
        if not pending:
            done = Event(self.env)
            done.succeed(None)
            return done
        return join_all(self.env, pending)

    # -- Ignem API (paper Section III-B3) -----------------------------------------

    def migrate(
        self,
        paths: Sequence[str],
        job_id: str,
        implicit_eviction: bool = False,
    ) -> None:
        """Ask Ignem to migrate the inputs of ``job_id`` into memory.

        A one-line call from the job submitter.  Silently a no-op when no
        Ignem master is attached (backward compatibility with plain HDFS,
        which is how the paper's baseline runs execute the same binaries).
        """
        if self.ignem_master is None:
            return
        from ..transport.messages import MigrateFilesRequest

        self.transport.request(
            "master",
            MigrateFilesRequest(
                tuple(paths), job_id, implicit_eviction=implicit_eviction
            ),
        )

    def evict(self, paths: Sequence[str], job_id: str) -> None:
        """Tell Ignem the job is done with these inputs (explicit evict)."""
        if self.ignem_master is None:
            return
        from ..transport.messages import EvictFilesRequest

        self.transport.request("master", EvictFilesRequest(tuple(paths), job_id))
