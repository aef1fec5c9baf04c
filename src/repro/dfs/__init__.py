"""HDFS-like distributed file system substrate.

NameNode (namespace + block map + placement), DataNodes (block storage on
device models with a pinnable buffer cache), and DFSClient (replica-aware
reads, write-back writes, and the Ignem ``migrate``/``evict`` extension).
"""

from .blocks import DEFAULT_BLOCK_SIZE, Block, FileMetadata, split_into_blocks
from .client import ClientRead, DFSClient
from .datanode import DataNode, DataNodeError, ReadHandle
from .locality_index import LocalityIndex
from .namenode import NameNode, NameNodeError
from .replication import ReplicationMonitor

__all__ = [
    "LocalityIndex",
    "DEFAULT_BLOCK_SIZE",
    "Block",
    "ClientRead",
    "DFSClient",
    "DataNode",
    "DataNodeError",
    "FileMetadata",
    "NameNode",
    "NameNodeError",
    "ReplicationMonitor",
    "ReadHandle",
    "split_into_blocks",
]
