"""Seeded randomness helpers.

The simulation must be deterministic, so no module may touch global RNG
state.  Experiments construct a :class:`RandomSource` at their boundary and
pass it (or children spawned from it) down explicitly.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    import numpy


class RandomSource:
    """A seeded bundle of a ``random.Random`` and a numpy ``Generator``.

    ``spawn`` derives independent child sources from a name, so distinct
    subsystems (e.g. the SWIM generator vs. replica placement) draw from
    independent streams and adding draws to one does not perturb another.

    The numpy ``Generator`` is built, and numpy imported, at the first
    access to :attr:`np`: a run that draws no numpy number never loads
    numpy.  It depends only on the seed, so when it is built does not
    change its stream.
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.py = random.Random(self.seed)
        self._np: Optional[numpy.random.Generator] = None

    @property
    def np(self) -> numpy.random.Generator:
        if self._np is None:
            import numpy

            self._np = numpy.random.default_rng(self.seed)
        return self._np

    def spawn(self, name: str) -> "RandomSource":
        """Derive a child source keyed by ``name`` (stable across runs)."""
        child_seed = (self.seed * 1_000_003 + _stable_hash(name)) % (2**63)
        return RandomSource(child_seed)

    # -- convenience draws --------------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        return self.py.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        return self.py.expovariate(rate)

    def lognormal(self, mean: float, sigma: float) -> float:
        return float(self.np.lognormal(mean, sigma))

    def choice(self, seq):
        return self.py.choice(seq)

    def sample(self, seq, k: int):
        return self.py.sample(seq, k)

    def shuffle(self, seq) -> None:
        self.py.shuffle(seq)

    def randint(self, low: int, high: int) -> int:
        """Inclusive on both ends, like ``random.randint``."""
        return self.py.randint(low, high)


def _stable_hash(name: str) -> int:
    """A deterministic string hash (``hash()`` is salted per process)."""
    value = 1469598103934665603  # FNV-1a 64-bit offset basis
    for byte in name.encode("utf-8"):
        value ^= byte
        value = (value * 1099511628211) % (2**64)
    return value


def derive_seed(seed: int, name: str) -> int:
    """Standalone helper: derive a child seed from (seed, name)."""
    return (int(seed) * 1_000_003 + _stable_hash(name)) % (2**63)
