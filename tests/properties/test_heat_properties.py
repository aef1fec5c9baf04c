"""Property-based tests for the heat estimator and promotion planner."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.heat import (
    DEMOTE_THRESHOLD,
    MAX_OUTSTANDING_BYTES,
    OWNER,
    PROMOTE_THRESHOLD,
    REQUEST_TTL_TICKS,
    HeatConfig,
    HeatEstimator,
    PopularityMigrator,
    PromotionCandidate,
    plan_promotions,
)
from repro.dfs.blocks import Block
from repro.storage import MB
from repro.storage.tiers import MEM


def _block(index, nbytes=64 * MB):
    return Block(
        block_id=f"/p/data#blk{index}",
        path="/p/data",
        index=index,
        nbytes=nbytes,
    )


#: One read event: (block index, tenant index, time).
read_events = st.tuples(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=2),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)


def _feed(estimator, events):
    for block_index, tenant_index, when in events:
        estimator.record(_block(block_index), f"t{tenant_index}", when)


class TestEstimatorProperties:
    @given(
        st.lists(read_events, min_size=1, max_size=40),
        st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_decay_is_monotone_in_time(self, events, t_a, t_b):
        """With no new reads, heat never increases as time passes."""
        estimator = HeatEstimator(half_life=10.0)
        _feed(estimator, events)
        last = max(when for _b, _t, when in events)
        earlier, later = sorted((last + t_a, last + t_b))
        for block_index in range(6):
            block_id = _block(block_index).block_id
            assert (
                estimator.heat(block_id, later)
                <= estimator.heat(block_id, earlier) + 1e-12
            )

    @given(
        st.lists(read_events, min_size=1, max_size=30),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_promotion_set_invariant_under_reordering(self, events, rnd):
        """The heat state is a pure function of the event multiset: any
        arrival order yields the same heats (up to float noise) and the
        exact same set of promotion-qualified blocks."""
        in_order = HeatEstimator(half_life=10.0)
        _feed(in_order, events)
        shuffled = list(events)
        rnd.shuffle(shuffled)
        reordered = HeatEstimator(half_life=10.0)
        _feed(reordered, shuffled)

        now = max(when for _b, _t, when in events) + 1.0
        threshold = 2.0
        qualified_a, qualified_b = set(), set()
        for block_index in range(6):
            block_id = _block(block_index).block_id
            heat_a = in_order.heat(block_id, now)
            heat_b = reordered.heat(block_id, now)
            assert heat_a == pytest.approx(heat_b, rel=1e-9, abs=1e-9)
            if heat_a >= threshold:
                qualified_a.add(block_id)
            if heat_b >= threshold:
                qualified_b.add(block_id)
        assert qualified_a == qualified_b

    @given(st.lists(read_events, min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_tenant_counts_order_independent(self, events):
        estimator = HeatEstimator(half_life=10.0)
        _feed(estimator, events)
        reordered = HeatEstimator(half_life=10.0)
        _feed(reordered, list(reversed(events)))
        for block_index in range(6):
            block_id = _block(block_index).block_id
            assert estimator.dominant_tenant(
                block_id
            ) == reordered.dominant_tenant(block_id)


#: One promotion candidate: (block index, tenant index, size in MB).
candidate_draws = st.tuples(
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=1.0, max_value=600.0, allow_nan=False),
)


def _candidates(draws):
    return [
        PromotionCandidate(
            Block(
                block_id=f"/p/data#blk{index}-{i}",
                path="/p/data",
                index=i,
                nbytes=size_mb * MB,
            ),
            f"t{tenant}",
        )
        for i, (index, tenant, size_mb) in enumerate(draws)
    ]


class TestPlannerProperties:
    @given(
        st.lists(candidate_draws, min_size=0, max_size=30),
        st.floats(min_value=1.0, max_value=1024.0),
        st.floats(min_value=1.0, max_value=4096.0),
        st.floats(min_value=0.0, max_value=2048.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_caps_never_exceeded(
        self, draws, tenant_cap_mb, admit_cap_mb, outstanding_mb
    ):
        candidates = _candidates(draws)
        tenant_cap = tenant_cap_mb * MB
        admit_cap = admit_cap_mb * MB
        outstanding = outstanding_mb * MB
        granted, spend, overflow = plan_promotions(
            candidates, tenant_cap, admit_cap, outstanding
        )
        # Per-tenant fairness: no tenant is granted more than the cap.
        for tenant, granted_bytes in spend.items():
            assert granted_bytes <= tenant_cap
        # Admission: grants never push the in-flight total above the
        # budget (already-over-budget outstanding just blocks grants).
        if granted:
            assert outstanding + sum(c.nbytes for c in granted) <= admit_cap
        # Conservation: every candidate is granted or explained.
        assert len(granted) + len(overflow) == len(candidates)
        assert {id(c) for c in granted}.isdisjoint(
            id(c) for c, _reason in overflow
        )
        # Spend is exactly the granted bytes, by tenant.
        by_tenant = {}
        for candidate in granted:
            by_tenant[candidate.tenant] = (
                by_tenant.get(candidate.tenant, 0.0) + candidate.nbytes
            )
        assert by_tenant == spend

    @given(st.lists(candidate_draws, min_size=0, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_unbounded_caps_grant_everything(self, draws):
        candidates = _candidates(draws)
        granted, _spend, overflow = plan_promotions(
            candidates, float("inf"), float("inf"), 0.0
        )
        assert granted == candidates
        assert not overflow


# -- the policy tick against a reference --------------------------------------


def reference_tick(migrator):
    """The tick as first written: every promoted block's heat is decayed
    through ``HeatEstimator.heat`` for demotion, and the whole tracked
    table is decayed again and sorted hottest first for candidates."""
    now = migrator.env.now
    migrator._tick_count += 1
    migrator._c_ticks.inc()
    config = migrator.config
    estimator = migrator.estimator
    namenode = migrator.namenode

    for block_id in sorted(migrator._outstanding):
        issued, _nbytes, tier = migrator._outstanding[block_id]
        if not namenode.is_block(block_id):
            migrator._finish_outstanding(block_id)
            estimator.forget(block_id)
        elif namenode.locality_index.nodes(block_id, tier):
            migrator._finish_outstanding(block_id)
            migrator.promoted[block_id] = tier
        elif migrator._tick_count - issued >= REQUEST_TTL_TICKS:
            migrator._finish_outstanding(block_id)
            migrator._c_expired.inc()
            migrator._request_demotion([block_id], OWNER)

    demote = []
    for block_id in sorted(migrator.promoted):
        if not namenode.is_block(block_id):
            demote.append(block_id)
            estimator.forget(block_id)
        elif estimator.heat(block_id, now) < DEMOTE_THRESHOLD:
            demote.append(block_id)
    if demote:
        for block_id in demote:
            migrator.promoted.pop(block_id)
        migrator._c_demotions.inc(len(demote))
        migrator._request_demotion(demote, OWNER)

    candidates = []
    seen = set(migrator.promoted) | set(migrator._outstanding)
    deferred, migrator._deferred = migrator._deferred, []
    for candidate in deferred:
        block_id = candidate.block.block_id
        if block_id in seen or not namenode.is_block(block_id):
            continue
        if estimator.heat(block_id, now) < PROMOTE_THRESHOLD:
            continue
        seen.add(block_id)
        candidates.append(candidate)
    table = [(block_id, estimator.heat(block_id, now)) for block_id in estimator._heat]
    table.sort(key=lambda pair: (-pair[1], pair[0]))
    for block_id, heat in table:
        if heat < PROMOTE_THRESHOLD:
            break
        if block_id in seen:
            continue
        if not namenode.is_block(block_id):
            estimator.forget(block_id)
            continue
        block = estimator.block(block_id)
        if block is None:
            continue
        tenant = estimator.dominant_tenant(block_id) or "default"
        seen.add(block_id)
        candidates.append(PromotionCandidate(block, tenant))
    if not candidates:
        return

    granted, spend, overflow = plan_promotions(
        candidates,
        config.tenant_tick_bytes,
        MAX_OUTSTANDING_BYTES,
        migrator._outstanding_bytes,
    )
    for candidate, _reason in overflow:
        migrator._overflow(candidate)
    if not granted:
        return
    migrator._request_promotion(
        [candidate.block for candidate in granted], OWNER, migrator.dst_tier
    )
    for candidate in granted:
        migrator._outstanding[candidate.block.block_id] = (
            migrator._tick_count,
            candidate.block.nbytes,
            migrator.dst_tier,
        )
        migrator._outstanding_bytes += candidate.block.nbytes
    migrator._c_promotions.inc(len(granted))
    migrator.fairness_log.append(
        {
            "tick": migrator._tick_count,
            "time": now,
            "granted": {tenant: spend[tenant] for tenant in sorted(spend)},
        }
    )


class _Clock:
    now = 0.0


class _Namespace:
    """The two NameNode queries a tick makes."""

    def __init__(self, deleted, resident):
        self.deleted = deleted
        self.locality_index = self
        self.resident = resident

    def is_block(self, block_id):
        return block_id not in self.deleted

    def nodes(self, block_id, tier):
        return ["node0"] if block_id in self.resident else []


class _Outbox:
    def __init__(self):
        self.sent = []

    def request(self, endpoint, message):
        self.sent.append((endpoint, message))


class _Jobs:
    def register_job(self, job_id):
        pass


#: Per-block policy state: 0 untracked by the policy, 1 promoted,
#: 2 outstanding, 3 deferred.
block_states = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2),  # deferred tenant
        # Size in MB: 2 GB blocks let the in-flight bytes pass the 4 GB
        # admission budget, and outgrow every drawn fairness cap.
        st.sampled_from([16, 64, 256, 2048]),
        st.booleans(),  # deleted
        st.booleans(),  # resident (settles an outstanding promotion)
        st.integers(min_value=0, max_value=9),  # outstanding since tick
    ),
    min_size=8,
    max_size=8,
)


def _migrator(config, reads, states, now, tick_count):
    sizes = {index: size * MB for index, (_s, _t, size, *_rest) in enumerate(states)}
    deleted = set()
    resident = set()
    for index, (_s, _t, _size, gone, settled, _since) in enumerate(states):
        block_id = _block(index).block_id
        if gone:
            deleted.add(block_id)
        if settled:
            resident.add(block_id)
    migrator = PopularityMigrator(
        _Clock(), _Namespace(deleted, resident), _Jobs(), config,
        default_tier=MEM, transport=_Outbox(),
    )
    migrator.env.now = now
    migrator._tick_count = tick_count
    for block_index, tenant_index, when in reads:
        migrator.estimator.record(
            _block(block_index, sizes[block_index]), f"t{tenant_index}", when
        )
    for index, (state, tenant, _size, _gone, _settled, since) in enumerate(states):
        block = _block(index, sizes[index])
        if state == 1:
            migrator.promoted[block.block_id] = MEM
        elif state == 2:
            migrator._outstanding[block.block_id] = (
                min(since, tick_count), block.nbytes, MEM
            )
            migrator._outstanding_bytes += block.nbytes
        elif state == 3:
            migrator._deferred.append(PromotionCandidate(block, f"t{tenant}"))
    return migrator


def _observed(migrator):
    counters = ("ticks", "promotions", "demotions", "shed", "queued", "expired")
    return {
        "sent": migrator.transport.sent,
        "fairness_log": migrator.fairness_log,
        "promoted": migrator.promoted,
        "outstanding": migrator._outstanding,
        "outstanding_bytes": migrator._outstanding_bytes,
        "deferred": [(c.block, c.tenant) for c in migrator._deferred],
        "tracked": migrator.estimator.heats(migrator.env.now),
        "counters": [
            migrator.metrics.value(f"heat.policy.{name}") for name in counters
        ],
    }


def _hot(*blocks):
    """Three reads at t=10 per block: heat 3.0 at t=10, above the
    promote threshold."""
    return [(block, 0, 10.0) for block in blocks for _ in range(3)]


_COLD = (0, 0, 16, False, False, 0)


class TestTickProperties:
    # Fairness overflow: under a 300 MB tenant cap the first 256 MB
    # block is granted, the second queues and the 2 GB block is shed.
    @example(
        reads=_hot(0, 1, 2),
        states=[(0, 0, 256, False, False, 0)] * 2
        + [(0, 0, 2048, False, False, 0)]
        + [_COLD] * 5,
        now=10.0,
        tick_count=6,
        tenant_mb=300,
    )
    # Admission overflow: two 2 GB promotions in flight fill the 4 GB
    # budget, so a fresh hot 64 MB block queues.
    @example(
        reads=_hot(2),
        states=[(2, 0, 2048, False, False, 5)] * 2
        + [(0, 0, 64, False, False, 0)]
        + [_COLD] * 5,
        now=10.0,
        tick_count=6,
        tenant_mb=300,
    )
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=2),
                st.floats(min_value=0.0, max_value=60.0, allow_nan=False),
            ),
            max_size=60,
        ),
        block_states,
        st.floats(min_value=0.0, max_value=120.0, allow_nan=False),
        st.integers(min_value=0, max_value=12),
        st.sampled_from([64, 300, 1024]),
    )
    @settings(max_examples=150, deadline=None)
    def test_tick_matches_the_reference(
        self, reads, states, now, tick_count, tenant_mb
    ):
        """Decaying each block once per tick and sorting only the fresh
        hot candidates demotes, promotes (blocks, order, tenants),
        defers and logs exactly what the full-table tick did."""
        config = HeatConfig(half_life=10.0, tenant_tick_bytes=tenant_mb * MB)
        ticked = _migrator(config, reads, states, now, tick_count)
        ticked._tick()
        reference = _migrator(config, reads, states, now, tick_count)
        reference_tick(reference)
        assert _observed(ticked) == _observed(reference)
