"""Hint-free popularity-driven migration: heat tracking + policy.

Everything Ignem migrates today it migrates because a job *asked*
(`client.migrate(paths, job_id)` — the paper's submitter hint).  This
module adds the production-realistic alternative from "Automating
Distributed Tiered Storage Management in Cluster Computing" (see
PAPERS.md): the system itself estimates block heat from observed reads
and promotes hot blocks up the tier stack, demoting them when they cool.

Three pieces:

* :class:`HeatEstimator` — exponentially-decayed per-block access
  counters fed from NameNode read events.  The update rule is a pure
  function of the event multiset (order-independent up to float
  associativity), which is what makes the promotion decisions
  reproducible no matter how concurrent readers interleave within a
  policy tick.
* :class:`HeatConfig` — the policy knobs (half-life, tick cadence,
  per-tenant fairness cap); the thresholds and the admission budget are
  module constants.
* :class:`PopularityMigrator` — the tick loop.  It owns a synthetic
  "job" (:data:`OWNER`) so the promoted blocks ride the *existing*
  Ignem machinery end to end: master batching/retry/reroute, slave
  queues, do-not-harm accounting, buffer caps, and cleanup sweeps all
  apply unchanged.  No new command types, no slave changes.

The migrator parks when the cluster is quiescent (nothing promoted,
nothing in flight, nothing hot enough to promote) so a simulation with
no perpetual load still drains: ``env.run()`` terminates exactly as it
does without the policy.  Reads un-park it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..dfs.blocks import Block
from ..dfs.namenode import NameNode
from ..obs.registry import MetricsRegistry
from ..sim.engine import Environment
from ..transport.messages import DemoteBlocksRequest, PromoteBlocksRequest
from ..sim.events import Event
from ..storage.device import GB, MB
from ..storage.tiers import MEM


#: Heat above which a block is promoted.  A read-per-half-life steady
#: state holds heat ~2.0, so this means "accessed faster than once per
#: half-life".
PROMOTE_THRESHOLD = 2.0
#: Heat below which a promoted block is demoted.
DEMOTE_THRESHOLD = 0.5
#: Admission control: total bytes of promotions in flight (requested,
#: not yet resident).  Over-budget candidates queue for the next tick;
#: one that can never fit under the caps is shed.
MAX_OUTSTANDING_BYTES = 4 * GB
#: A promotion that has not become resident after this many ticks is
#: written off (and its queued work cancelled) so a crashed or saturated
#: slave cannot pin the admission budget forever.
REQUEST_TTL_TICKS = 8
#: The synthetic job id the policy's migrations run under; registered
#: with the scheduler so slave cleanup sweeps keep the promoted blocks.
OWNER = "heat-policy"
#: Cap on tracked blocks; the coldest ~10% are dropped when exceeded
#: (heat estimation stays O(working set), not O(namespace)).
MAX_TRACKED = 100_000


@dataclass(frozen=True)
class HeatConfig:
    """Tunables for the popularity-driven migration policy.

    * ``half_life`` — seconds for a block's heat to decay by half with
      no accesses.  Each read adds 1.0 heat.
    * ``tick_interval`` — seconds between policy decisions.
    * ``tenant_tick_bytes`` — per-tenant fairness cap: bytes of
      promotion bandwidth one tenant may receive per tick.  A single hot
      tenant cannot starve the others' promotions.

    Promotions land in the Ignem config's ``migration_tier``.
    """

    half_life: float = 60.0
    tick_interval: float = 5.0
    tenant_tick_bytes: float = 512 * MB

    def __post_init__(self) -> None:
        if not self.half_life > 0:
            raise ValueError("half_life must be positive")
        if not self.tick_interval > 0:
            raise ValueError("tick_interval must be positive")
        if not self.tenant_tick_bytes > 0:
            raise ValueError("tenant_tick_bytes must be positive")


class HeatEstimator:
    """Exponentially-decayed access counters, one per observed block.

    The stored heat is always the value *at the stamp time* (the latest
    event time seen).  The update rule makes the state a pure function
    of the event multiset: recording ``(block, t)`` adds exactly
    ``0.5 ** ((stamp - t) / half_life)`` heat at the stamp, whether the
    event arrives in order or late.  Reordering events within a tick
    therefore cannot change which blocks qualify for promotion (up to
    float addition order).
    """

    def __init__(self, half_life: float = 60.0):
        if half_life <= 0:
            raise ValueError("half_life must be positive")
        self.half_life = half_life
        self._heat: Dict[str, float] = {}
        self._stamp: Dict[str, float] = {}
        self._blocks: Dict[str, Block] = {}
        self._tenants: Dict[str, Dict[str, int]] = {}

    # -- feeding ----------------------------------------------------------------

    def record(
        self, block: Block, tenant: Optional[str], now: float
    ) -> None:
        """Fold one read of ``block`` at time ``now`` into its heat."""
        tenant = tenant if tenant is not None else "default"
        block_id = block.block_id
        stamp = self._stamp.get(block_id)
        if stamp is None:
            self._heat[block_id] = 1.0
            self._stamp[block_id] = now
        elif now >= stamp:
            decay = 0.5 ** ((now - stamp) / self.half_life)
            self._heat[block_id] = self._heat[block_id] * decay + 1.0
            self._stamp[block_id] = now
        else:  # late event: discount it back from the stamp instead
            self._heat[block_id] += 0.5 ** ((stamp - now) / self.half_life)
        self._blocks[block_id] = block
        counts = self._tenants.setdefault(block_id, {})
        counts[tenant] = counts.get(tenant, 0) + 1
        if len(self._heat) > MAX_TRACKED:
            self._evict_coldest(now)

    # -- queries ----------------------------------------------------------------

    def heat(self, block_id: str, now: float) -> float:
        """Decayed heat of one block at time ``now`` (0.0 if untracked)."""
        value = self._heat.get(block_id)
        if value is None:
            return 0.0
        delta = now - self._stamp[block_id]
        if delta > 0:
            value *= 0.5 ** (delta / self.half_life)
        return value

    def max_heat(self, now: float) -> float:
        """The hottest tracked block's decayed heat (0.0 when empty)."""
        return max(self.heats(now).values(), default=0.0)

    def heats(self, now: float) -> Dict[str, float]:
        """Every tracked block's decayed heat at time ``now``, in one
        pass (the same arithmetic as :meth:`heat`)."""
        half_life = self.half_life
        stamps = self._stamp
        decayed = {}
        for block_id, value in self._heat.items():
            delta = now - stamps[block_id]
            if delta > 0:
                value *= 0.5 ** (delta / half_life)
            decayed[block_id] = value
        return decayed

    def dominant_tenant(self, block_id: str) -> Optional[str]:
        """The tenant with the most recorded reads of this block (ties
        broken by tenant name)."""
        counts = self._tenants.get(block_id)
        if not counts:
            return None
        return min(counts, key=lambda tenant: (-counts[tenant], tenant))

    def block(self, block_id: str) -> Optional[Block]:
        return self._blocks.get(block_id)

    def tracked(self) -> int:
        return len(self._heat)

    # -- maintenance -------------------------------------------------------------

    def forget(self, block_id: str) -> None:
        self._heat.pop(block_id, None)
        self._stamp.pop(block_id, None)
        self._blocks.pop(block_id, None)
        self._tenants.pop(block_id, None)

    def _evict_coldest(self, now: float) -> None:
        """Drop the coldest ~10% so tracking stays bounded."""
        victims = sorted(
            self._heat, key=lambda block_id: (self.heat(block_id, now), block_id)
        )[: max(1, MAX_TRACKED // 10)]
        for block_id in victims:
            self.forget(block_id)


@dataclass(frozen=True)
class PromotionCandidate:
    """One block the policy wants to promote, attributed to the tenant
    that earned it its heat (fairness accounting charges them)."""

    block: Block
    tenant: str

    @property
    def nbytes(self) -> float:
        return self.block.nbytes


def plan_promotions(
    candidates: Sequence,
    tenant_tick_bytes: float,
    max_outstanding_bytes: float,
    outstanding_bytes: float,
):
    """Apply fairness + admission control to a priority-ordered candidate
    list.  Pure function (no simulator state) so properties — per-tenant
    caps never exceeded, admission budget respected — test directly.

    Each candidate needs ``.nbytes`` and ``.tenant``.  Returns
    ``(granted, spend, overflow)`` where ``spend`` maps tenant -> bytes
    granted this tick and ``overflow`` pairs each rejected candidate
    with the binding constraint (``"fairness"`` or ``"admission"``).
    """
    granted = []
    overflow = []
    spend: Dict[str, float] = {}
    for candidate in candidates:
        tenant_spend = spend.get(candidate.tenant, 0.0)
        if tenant_spend + candidate.nbytes > tenant_tick_bytes:
            overflow.append((candidate, "fairness"))
            continue
        if outstanding_bytes + candidate.nbytes > max_outstanding_bytes:
            overflow.append((candidate, "admission"))
            continue
        spend[candidate.tenant] = tenant_spend + candidate.nbytes
        outstanding_bytes += candidate.nbytes
        granted.append(candidate)
    return granted, spend, overflow


class PopularityMigrator:
    """The heat-driven policy loop: observe reads, promote, demote.

    Wire-up (done by ``Cluster.enable_heat_migration``): subscribe
    :meth:`on_read` to the NameNode's read events, then :meth:`start`.
    All migrations run under the synthetic job :data:`OWNER` through
    the ordinary Ignem master APIs, so every existing robustness
    mechanism (command retry, do-not-harm, cleanup sweeps, per-tier
    caps) governs promoted blocks too.
    """

    def __init__(
        self,
        env: Environment,
        namenode: NameNode,
        rm,
        config: Optional[HeatConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        default_tier: str = MEM,
        *,
        transport,
    ):
        self.env = env
        self.namenode = namenode
        self.rm = rm
        #: Promotions/demotions ship to the ``"master"`` endpoint as
        #: protocol messages.
        self.transport = transport
        self.config = config or HeatConfig()
        self.dst_tier = default_tier
        self.estimator = HeatEstimator(half_life=self.config.half_life)
        self.enabled = True
        #: block_id -> destination tier, for promotions that completed.
        self.promoted: Dict[str, str] = {}
        #: block_id -> (tick issued, nbytes, tier), for requests in flight.
        self._outstanding: Dict[str, Tuple[int, float, str]] = {}
        self._outstanding_bytes = 0.0
        self._deferred: List[PromotionCandidate] = []
        self._tick_count = 0
        self._parked: Optional[Event] = None
        #: Per-tick fairness audit: ``{"tick", "time", "granted":
        #: {tenant: bytes}}`` for every tick that granted promotions.
        #: The DST tenant-fairness oracle replays this against the cap.
        self.fairness_log: List[Dict] = []

        registry = registry or MetricsRegistry()
        self.metrics = registry
        self._c_ticks = registry.counter("heat.policy.ticks")
        self._c_promotions = registry.counter("heat.policy.promotions")
        self._c_demotions = registry.counter("heat.policy.demotions")
        self._c_shed = registry.counter("heat.policy.shed")
        self._c_queued = registry.counter("heat.policy.queued")
        self._c_expired = registry.counter("heat.policy.expired")
        registry.register_pull("heat.policy.tracked_blocks", self.estimator.tracked)
        registry.register_pull(
            "heat.policy.outstanding_bytes", lambda: self._outstanding_bytes
        )

    # -- feed --------------------------------------------------------------------

    def on_read(self, block: Block, tenant: Optional[str]) -> None:
        """NameNode read-event listener: fold the access into the heat
        model and un-park the tick loop."""
        if not self.enabled:
            return
        self.estimator.record(block, tenant, self.env.now)
        if self._parked is not None and not self._parked.triggered:
            self._parked.succeed(None)

    # -- master RPC --------------------------------------------------------------

    def _request_promotion(self, blocks, owner: str, dst_tier: str) -> None:
        self.transport.request(
            "master",
            PromoteBlocksRequest(tuple(blocks), owner, dst_tier=dst_tier),
        )

    def _request_demotion(self, block_ids, owner: str) -> None:
        self.transport.request(
            "master", DemoteBlocksRequest(tuple(block_ids), owner)
        )

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Register the policy's owner job and start the tick loop."""
        self.rm.register_job(OWNER)
        self.env.process(self._loop(), name="heat-policy")

    def shutdown(self) -> None:
        """Stop the policy and demote everything it promoted.

        Leaves the cluster exactly as a hint-based job's completion
        would: references released, buffer bytes returned, owner job
        unregistered (so any straggler refs fall to the cleanup sweep).
        """
        self.enabled = False
        leftovers = sorted(set(self.promoted) | set(self._outstanding))
        if leftovers:
            self._request_demotion(leftovers, OWNER)
        self.promoted.clear()
        self._outstanding.clear()
        self._outstanding_bytes = 0.0
        self._deferred.clear()
        if self._parked is not None and not self._parked.triggered:
            self._parked.succeed(None)
        if self.rm.job_active(OWNER):
            self.rm.unregister_job(OWNER)

    # -- the loop ----------------------------------------------------------------

    def _quiescent(self) -> bool:
        """Nothing promoted, nothing in flight, nothing hot enough: the
        next tick provably has no work, and only a new read (which
        un-parks us) can change that — heat only decays with time."""
        if self.promoted or self._outstanding or self._deferred:
            return False
        return self.estimator.max_heat(self.env.now) < PROMOTE_THRESHOLD

    def _loop(self):
        while self.enabled:
            if self._quiescent():
                self._parked = Event(self.env)
                yield self._parked
                self._parked = None
                continue
            yield self.env.timeout(self.config.tick_interval)
            if not self.enabled:
                return
            self._tick()

    def _tick(self) -> None:
        now = self.env.now
        self._tick_count += 1
        self._c_ticks.inc()
        config = self.config
        estimator = self.estimator
        namenode = self.namenode

        # 1. Settle in-flight promotions: resident -> promoted; deleted
        #    -> written off; TTL-expired -> written off AND cancelled
        #    (the eviction drops queued work so a completed-later
        #    migration cannot leak resident bytes).
        for block_id in sorted(self._outstanding):
            issued, _nbytes, tier = self._outstanding[block_id]
            if not namenode.is_block(block_id):
                self._finish_outstanding(block_id)
                estimator.forget(block_id)
            elif namenode.locality_index.nodes(block_id, tier):
                self._finish_outstanding(block_id)
                self.promoted[block_id] = tier
            elif self._tick_count - issued >= REQUEST_TTL_TICKS:
                self._finish_outstanding(block_id)
                self._c_expired.inc()
                self._request_demotion([block_id], OWNER)

        # 2. Demote cooled (or deleted) promoted blocks.  Each tracked
        #    block's heat is decayed to ``now`` once, for this step and
        #    the next.
        heats = estimator.heats(now)
        demote: List[str] = []
        for block_id in sorted(self.promoted):
            if not namenode.is_block(block_id):
                demote.append(block_id)
                estimator.forget(block_id)
            elif heats.get(block_id, 0.0) < DEMOTE_THRESHOLD:
                demote.append(block_id)
        if demote:
            for block_id in demote:
                self.promoted.pop(block_id)
            self._c_demotions.inc(len(demote))
            self._request_demotion(demote, OWNER)

        # 3. Gather candidates: deferred (re-validated) first — they were
        #    hot before the queue backed up — then fresh heat, hottest
        #    first.
        candidates: List[PromotionCandidate] = []
        seen = set(self.promoted) | set(self._outstanding)
        deferred, self._deferred = self._deferred, []
        for candidate in deferred:
            block_id = candidate.block.block_id
            if block_id in seen or not namenode.is_block(block_id):
                continue
            if heats.get(block_id, 0.0) < PROMOTE_THRESHOLD:
                continue  # cooled while queued; it can re-qualify later
            seen.add(block_id)
            candidates.append(candidate)
        hot = sorted(
            (-heat, block_id)
            for block_id, heat in heats.items()
            if heat >= PROMOTE_THRESHOLD and block_id not in seen
        )
        for _heat, block_id in hot:
            if not namenode.is_block(block_id):
                estimator.forget(block_id)
                continue
            block = estimator.block(block_id)
            if block is None:
                continue
            tenant = estimator.dominant_tenant(block_id) or "default"
            candidates.append(PromotionCandidate(block, tenant))
        if not candidates:
            return

        # 4. Fairness + admission, then one batched promotion request.
        granted, spend, overflow = plan_promotions(
            candidates,
            config.tenant_tick_bytes,
            MAX_OUTSTANDING_BYTES,
            self._outstanding_bytes,
        )
        for candidate, _reason in overflow:
            self._overflow(candidate)
        if not granted:
            return
        self._request_promotion(
            [candidate.block for candidate in granted],
            OWNER,
            self.dst_tier,
        )
        for candidate in granted:
            self._outstanding[candidate.block.block_id] = (
                self._tick_count,
                candidate.block.nbytes,
                self.dst_tier,
            )
            self._outstanding_bytes += candidate.block.nbytes
        self._c_promotions.inc(len(granted))
        self.fairness_log.append(
            {
                "tick": self._tick_count,
                "time": now,
                "granted": {tenant: spend[tenant] for tenant in sorted(spend)},
            }
        )

    def _finish_outstanding(self, block_id: str) -> None:
        _issued, nbytes, _tier = self._outstanding.pop(block_id)
        self._outstanding_bytes = max(0.0, self._outstanding_bytes - nbytes)

    def _overflow(self, candidate: PromotionCandidate) -> None:
        """An over-cap candidate is queued for the next tick when it can
        ever fit under both caps, shed otherwise."""
        if candidate.nbytes <= min(
            self.config.tenant_tick_bytes, MAX_OUTSTANDING_BYTES
        ):
            self._deferred.append(candidate)
            self._c_queued.inc()
        else:
            self._c_shed.inc()
