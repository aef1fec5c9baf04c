"""Calibrated device presets matching the paper's testbed (Section IV-A).

The paper's servers have one 1TB HDD, 128GB RAM, and a 10Gbps network.
The figures to reproduce pin down the effective speeds:

* Fig 1: 64MB HDFS block reads from RAM are ~160x faster than from HDD
  and ~7x faster than from SSD, *under the concurrency of a running
  MapReduce workload*.
* Table II: a 64MB-reading mapper takes ~6.4s on HDFS (disk) and ~0.28s
  with inputs in RAM — so a contended HDD stream delivers ~10MB/s while
  a RAM read delivers GB/s.
* Section III-A1 / IV-F: one *sequential* migration stream reads far
  faster than contended mapper streams, which is why Ignem migrates one
  block at a time.

The presets below reproduce those ratios:

============ ================== ============ ======================
device       sequential bw      latency      concurrency penalty
============ ================== ============ ======================
HDD          130 MB/s           8 ms         1 / (1 + 0.12 (n-1))
SSD          2000 MB/s          0.1 ms       1 / (1 + 0.005 (n-1))
RAM          1.7 GB/s           ~0           none
============ ================== ============ ======================

With ~8 concurrent mapper streams per disk (one busy wave of a large
job), the HDD serves ~8.8MB/s per stream (64MB in ~7s); RAM reads the
same block in ~0.038s (~160x faster); SSD lands ~7x slower than RAM per
Fig 1b/1c.  One *sequential* stream still gets the full 130MB/s — the
~1.9x aggregate efficiency gap between one migration stream and a busy
mapper wave is what makes Ignem's one-block-at-a-time migration (and the
Ignem+10s result) profitable.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .device import GB, MB
from .tiers import HDD, MEM, SSD, TierSpec

#: Default HDFS block size used throughout the paper's evaluation.
DEFAULT_BLOCK_SIZE = 64 * MB

HDD_BANDWIDTH = 130 * MB
HDD_LATENCY = 0.008
HDD_THRASH_ALPHA = 0.12

SSD_BANDWIDTH = 2000 * MB
SSD_LATENCY = 0.0001
SSD_THRASH_ALPHA = 0.005

#: Per-stream page-cache read throughput (one mapper's memcpy speed).
RAM_STREAM_RATE = 1.7 * GB
#: Aggregate DRAM bandwidth: many streams each run at full stream rate.
RAM_BANDWIDTH = 64 * GB
RAM_LATENCY = 0.0

#: The calibrated tier specs.  These are the single copy of the device
#: numbers; every device is built through ``TierSpec.make_device``.
MEM_TIER = TierSpec(
    name=MEM,
    height=2,
    bandwidth=RAM_BANDWIDTH,
    latency=RAM_LATENCY,
    thrash_alpha=None,
    stream_rate_cap=RAM_STREAM_RATE,
    device_prefix="ram",
    read_source="ram",
    default_capacity=128 * GB,
)

SSD_TIER = TierSpec(
    name=SSD,
    height=1,
    bandwidth=SSD_BANDWIDTH,
    latency=SSD_LATENCY,
    thrash_alpha=SSD_THRASH_ALPHA,
    default_capacity=256 * GB,
)

HDD_TIER = TierSpec(
    name=HDD,
    height=0,
    bandwidth=HDD_BANDWIDTH,
    latency=HDD_LATENCY,
    thrash_alpha=HDD_THRASH_ALPHA,
    default_capacity=1024 * GB,
)

#: Named per-node tier hierarchies selectable via ``ClusterConfig``.
#: ``mem-hdd`` is exactly the paper's testbed: memory over one HDD.
TIER_PRESETS: Dict[str, Tuple[TierSpec, ...]] = {
    "mem-hdd": (MEM_TIER, HDD_TIER),
    "mem-ssd": (MEM_TIER, SSD_TIER),
    "mem-ssd-hdd": (MEM_TIER, SSD_TIER, HDD_TIER),
}


def tier_preset(name: str) -> Tuple[TierSpec, ...]:
    """Look up a named tier preset; raises ``KeyError`` with the roster."""
    try:
        return TIER_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(TIER_PRESETS))
        raise KeyError(f"unknown tier preset {name!r} (known: {known})") from None
