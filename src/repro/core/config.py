"""Ignem configuration knobs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..storage.device import GB
from ..storage.tiers import MEM
from .policy import POLICIES

#: Occupancy fraction of the fullest destination tier at which a slave
#: asks the scheduler which jobs are still alive and purges references
#: held by dead jobs (III-A4).
CLEANUP_THRESHOLD = 0.9
#: Seconds between re-checks while the ``busy_threshold`` throttle holds
#: a migration back.
BUSY_POLL_INTERVAL = 0.5
#: The master→slave command channel: an unacknowledged command (slave
#: down, message lost) is retried after ``COMMAND_TIMEOUT`` plus an
#: exponential backoff (``COMMAND_BACKOFF * COMMAND_BACKOFF_FACTOR **
#: attempt``), at most ``COMMAND_MAX_RETRIES`` times, before the master
#: re-routes the block's migration to another live replica holder
#: (graceful degradation, III-A5).
COMMAND_TIMEOUT = 0.5
COMMAND_MAX_RETRIES = 3
COMMAND_BACKOFF = 0.25
COMMAND_BACKOFF_FACTOR = 2.0
#: Simulated latency (seconds) of one batched master→slave command
#: (III-A6 batches commands to amortize this).
RPC_LATENCY = 0.002


@dataclass(frozen=True)
class IgnemConfig:
    """Tunables for the Ignem master and slaves.

    The command channel's timing (``RPC_LATENCY`` and the ``COMMAND_*``
    retry schedule) and ``CLEANUP_THRESHOLD`` are module constants.

    * ``buffer_capacity`` — per-slave cap on migrated bytes (paper
      Section III-B2: "Ignem limits the amount of migrated data to a
      configurable maximum threshold").  The paper's worst-case analysis
      (II-C2) shows 12.5GB suffices; we default to 16GB headroom.
    * ``policy`` — migration-queue ordering: ``"smallest-job-first"``
      (the paper's choice, III-A1), ``"fifo"`` (the IV-C5 ablation), or
      ``"benefit-aware"`` (the Section IV-E extension: prioritize jobs
      with more expected speed-up per migrated byte).
    * ``migration_concurrency`` — concurrent migrations per slave.  The
      paper uses 1 to protect disk bandwidth; >1 is an ablation.
    * ``do_not_harm`` — when the buffer is full, never evict migrated
      blocks to admit new ones (III-A3).  ``False`` switches to an
      evict-for-newer policy (ablation).
    * ``reverse_within_job`` — migrate each job's blocks tail-first so
      migration never races the mappers' scan front (ablation:
      ``False`` migrates in scan order).
    * ``replicas_to_migrate`` — how many replicas of each block to
      migrate.  The paper picks exactly one at random (III-A2): network
      bandwidth is plentiful, so extra in-memory copies mostly waste
      disk bandwidth and RAM (ablation: >1).
    * ``busy_threshold`` — optional Aqueduct-style throttle (paper §V
      relates Ignem to Aqueduct's bounded-impact migration): when set,
      a slave defers starting a migration while its disk already serves
      at least this many foreground streams, re-checking every
      ``BUSY_POLL_INTERVAL`` seconds.  ``None`` keeps the paper's purely
      work-conserving behaviour.
    * ``migration_tier`` — the destination tier migrations land in by
      default (the paper's design migrates into ``mem``; an SSD capacity
      tier is a preset choice on multi-tier hierarchies).
    * ``tier_buffer_capacities`` — per-destination-tier caps on migrated
      bytes as ``((tier, cap), ...)``; ``None`` applies
      ``buffer_capacity`` to ``migration_tier`` alone, which is exactly
      the paper's single-threshold design.  A slave keeps one ordered
      migration queue (and its own do-not-harm accounting) per tier
      listed here.
    """

    buffer_capacity: float = 16 * GB
    policy: str = "smallest-job-first"
    migration_concurrency: int = 1
    do_not_harm: bool = True
    reverse_within_job: bool = True
    replicas_to_migrate: int = 1
    busy_threshold: Optional[int] = None
    migration_tier: str = MEM
    tier_buffer_capacities: Optional[Tuple[Tuple[str, float], ...]] = None

    def destination_tiers(self) -> Tuple[str, ...]:
        """The tiers a slave accepts migrations into, in declared order."""
        if self.tier_buffer_capacities is None:
            return (self.migration_tier,)
        return tuple(tier for tier, _cap in self.tier_buffer_capacities)

    def buffer_capacity_for(self, tier: str) -> float:
        """The migrated-bytes cap for one destination tier."""
        if self.tier_buffer_capacities is None:
            if tier != self.migration_tier:
                raise ValueError(f"{tier!r} is not a migration destination")
            return self.buffer_capacity
        for name, cap in self.tier_buffer_capacities:
            if name == tier:
                return cap
        raise ValueError(f"{tier!r} is not a migration destination")

    def __post_init__(self) -> None:
        if not self.buffer_capacity > 0:
            raise ValueError("buffer_capacity must be positive")
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if not self.migration_tier:
            raise ValueError("migration_tier must be non-empty")
        if self.tier_buffer_capacities is not None:
            if not self.tier_buffer_capacities:
                raise ValueError("tier_buffer_capacities must be None or non-empty")
            tiers = [tier for tier, _cap in self.tier_buffer_capacities]
            if len(set(tiers)) != len(tiers):
                raise ValueError("tier_buffer_capacities has duplicate tiers")
            if self.migration_tier not in tiers:
                raise ValueError(
                    "migration_tier must appear in tier_buffer_capacities"
                )
            for tier, cap in self.tier_buffer_capacities:
                if not tier:
                    raise ValueError("tier names must be non-empty")
                if not cap > 0:
                    raise ValueError(f"tier {tier!r}: capacity must be positive")
        if self.migration_concurrency < 1:
            raise ValueError("migration_concurrency must be >= 1")
        if self.replicas_to_migrate < 1:
            raise ValueError("replicas_to_migrate must be >= 1")
        if self.busy_threshold is not None and self.busy_threshold < 1:
            raise ValueError("busy_threshold must be >= 1 or None")
