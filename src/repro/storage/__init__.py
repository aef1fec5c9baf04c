"""Storage substrate: device models and the OS buffer cache.

The physics layer of the reproduction.  Devices are processor-sharing
byte movers whose aggregate bandwidth degrades with concurrency (hard
disks thrash, SSDs barely notice, RAM not at all); the buffer cache gives
each server a pinnable page cache with LRU eviction and background
write-back — the substrate onto which Ignem's mmap/mlock migration maps.
"""

from .buffer_cache import BufferCache, CacheEntry
from .device import (
    GB,
    MB,
    Transfer,
    TransferDevice,
    no_penalty,
    seek_thrash_penalty,
)
from .presets import (
    DEFAULT_BLOCK_SIZE,
    HDD_BANDWIDTH,
    HDD_TIER,
    MEM_TIER,
    RAM_BANDWIDTH,
    SSD_BANDWIDTH,
    SSD_TIER,
    TIER_PRESETS,
    tier_preset,
)
from .tiers import (
    HDD,
    MEM,
    SSD,
    NodeTier,
    NodeTierSet,
    TierSpec,
    build_tier_set,
)

__all__ = [
    "GB",
    "MB",
    "DEFAULT_BLOCK_SIZE",
    "HDD",
    "HDD_BANDWIDTH",
    "HDD_TIER",
    "MEM",
    "MEM_TIER",
    "RAM_BANDWIDTH",
    "SSD",
    "SSD_BANDWIDTH",
    "SSD_TIER",
    "TIER_PRESETS",
    "BufferCache",
    "CacheEntry",
    "NodeTier",
    "NodeTierSet",
    "TierSpec",
    "Transfer",
    "TransferDevice",
    "build_tier_set",
    "no_penalty",
    "seek_thrash_penalty",
    "tier_preset",
]
