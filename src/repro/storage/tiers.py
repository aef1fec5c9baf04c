"""First-class storage tiers.

The paper's design is a two-level hierarchy — cold data migrates upward
from disk into memory — and earlier revisions hard-coded that binary
(``disk`` vs ``cache``) through every layer.  This module names the
concept instead: a :class:`TierSpec` describes one storage medium (its
ordinal *height*, bandwidth, latency, concurrency penalty), a
:class:`NodeTier` is that medium instantiated on one server, and a
:class:`NodeTierSet` is the ordered per-node hierarchy the DataNode
serves reads from and the Ignem slave migrates into.

The calibrated specs and named tier-set presets live in
:mod:`repro.storage.presets`; the default preset is exactly the paper's
two tiers (``mem`` over ``hdd``), and everything above the storage layer
speaks tier *names*, so a 3-tier ``mem``/``ssd``/``hdd`` hierarchy is a
preset choice, not a code change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

from ..sim.engine import Environment
from .buffer_cache import BufferCache
from .device import TransferDevice, no_penalty, seek_thrash_penalty

#: Canonical tier names used by the shipped presets.
MEM = "mem"
SSD = "ssd"
HDD = "hdd"


@dataclass(frozen=True)
class TierSpec:
    """One storage medium: identity plus calibrated device parameters.

    ``height`` is the tier's ordinal position — larger is closer to the
    CPU — and orders tiers within a :class:`NodeTierSet`.  ``bandwidth``,
    ``latency``, ``thrash_alpha`` (``None`` = concurrency-insensitive)
    and ``stream_rate_cap`` parameterize the
    :class:`~repro.storage.device.TransferDevice` the tier serves reads
    from; :meth:`make_device` is the single factory, so presets, cluster
    wiring and tests all share one copy of the numbers.
    """

    name: str
    height: int
    bandwidth: float
    latency: float
    thrash_alpha: Optional[float] = None
    stream_rate_cap: Optional[float] = None
    #: Device-name prefix (``ram`` for the mem tier, by convention).
    device_prefix: str = ""
    #: Label reported by ``ReadHandle.source`` for reads this tier serves.
    read_source: str = ""
    #: Per-node capacity used when the cluster config does not override.
    default_capacity: float = 0.0

    def __post_init__(self):
        if not self.name:
            raise ValueError("tier name must be non-empty")
        if self.bandwidth <= 0:
            raise ValueError(f"tier {self.name}: bandwidth must be positive")
        if self.latency < 0:
            raise ValueError(f"tier {self.name}: latency must be >= 0")

    @property
    def prefix(self) -> str:
        return self.device_prefix or self.name

    @property
    def source(self) -> str:
        return self.read_source or self.name

    def make_device(self, env: Environment, name: str) -> TransferDevice:
        """Build this tier's serving device (shared by all presets)."""
        if self.thrash_alpha is None:
            penalty = no_penalty
        else:
            penalty = seek_thrash_penalty(self.thrash_alpha)
        return TransferDevice(
            env,
            name,
            bandwidth=self.bandwidth,
            latency=self.latency,
            penalty=penalty,
            default_rate_cap=self.stream_rate_cap,
        )

    def make_node_device(self, env: Environment, node_name: str) -> TransferDevice:
        """Build the device for one server, named ``<prefix>-<node>``."""
        return self.make_device(env, f"{self.prefix}-{node_name}")


class NodeTier:
    """One tier instantiated on one server.

    Upper tiers (everything above the bottom) carry a
    :class:`~repro.storage.BufferCache` tracking which blocks are
    resident; the bottom tier is the backing store and holds every
    replica by definition.  The cache is attached by the DataNode (which
    owns flush wiring), so it starts as ``None``.
    """

    __slots__ = ("spec", "device", "capacity", "cache")

    def __init__(
        self, spec: TierSpec, device: TransferDevice, capacity: float
    ):
        if capacity <= 0:
            raise ValueError(f"tier {spec.name}: capacity must be positive")
        self.spec = spec
        self.device = device
        self.capacity = float(capacity)
        self.cache: Optional[BufferCache] = None

    @property
    def name(self) -> str:
        return self.spec.name

    def __repr__(self) -> str:
        return f"<NodeTier {self.spec.name} h={self.spec.height}>"


class NodeTierSet:
    """The ordered storage hierarchy of one server, top tier first."""

    __slots__ = ("tiers", "_by_name")

    def __init__(self, tiers: Sequence[NodeTier]):
        if not tiers:
            raise ValueError("a tier set needs at least one tier")
        ordered = sorted(tiers, key=lambda tier: -tier.spec.height)
        heights = [tier.spec.height for tier in ordered]
        if len(set(heights)) != len(heights):
            raise ValueError("tier heights must be distinct within a node")
        names = [tier.spec.name for tier in ordered]
        if len(set(names)) != len(names):
            raise ValueError("tier names must be distinct within a node")
        self.tiers: Tuple[NodeTier, ...] = tuple(ordered)
        self._by_name: Dict[str, NodeTier] = {
            tier.spec.name: tier for tier in ordered
        }

    @property
    def top(self) -> NodeTier:
        return self.tiers[0]

    @property
    def bottom(self) -> NodeTier:
        return self.tiers[-1]

    @property
    def upper(self) -> Tuple[NodeTier, ...]:
        """Every tier above the backing store, top first."""
        return self.tiers[:-1]

    def names(self) -> Tuple[str, ...]:
        return tuple(tier.spec.name for tier in self.tiers)

    def get(self, name: str) -> Optional[NodeTier]:
        return self._by_name.get(name)

    def __iter__(self) -> Iterator[NodeTier]:
        return iter(self.tiers)

    def __len__(self) -> int:
        return len(self.tiers)

    def __repr__(self) -> str:
        return f"<NodeTierSet {'/'.join(self.names())}>"


def build_tier_set(
    env: Environment,
    specs: Sequence[TierSpec],
    node_name: str,
    capacities: Optional[Mapping[str, float]] = None,
) -> NodeTierSet:
    """Instantiate ``specs`` on one server.

    Devices are created bottom-up (backing disk first); that order and
    the ``<prefix>-<node>`` names are part of the deterministic
    clean-path contract.  ``capacities`` overrides per-tier capacity by
    tier name; anything not named falls back to the spec default.
    """
    capacities = capacities or {}
    tiers = []
    for spec in sorted(specs, key=lambda spec: spec.height):
        capacity = capacities.get(spec.name, spec.default_capacity)
        tiers.append(
            NodeTier(spec, spec.make_node_device(env, node_name), capacity)
        )
    return NodeTierSet(tiers)
