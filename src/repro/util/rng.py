"""Seeded random-number helpers.

Simulation components must never reach for module-level :mod:`random`; each
stochastic model owns a :class:`SeededRng` derived from the experiment seed
so that every run is reproducible packet-for-packet.
"""

from __future__ import annotations

import random
from typing import Callable, Optional, Sequence, TypeVar

T = TypeVar("T")


class SeededRng:
    """A thin, explicit wrapper over :class:`random.Random`.

    Provides only the draws the simulator needs, plus :meth:`fork` to derive
    independent sub-streams (e.g. one per network link) that stay stable when
    unrelated components are added to an experiment.
    """

    def __init__(self, seed: int):
        self._seed = int(seed)
        self._rng = random.Random(self._seed)

    @property
    def seed(self) -> int:
        return self._seed

    def fork(self, label: str) -> "SeededRng":
        """Derive an independent stream keyed by ``label``.

        Uses a stable hash of the label (not Python's randomized ``hash``)
        so forks are identical across interpreter runs.
        """
        h = 0
        for ch in label:
            h = (h * 131 + ord(ch)) & 0xFFFFFFFF
        return SeededRng((self._seed * 1_000_003 + h) & 0x7FFFFFFF)

    def uniform(self, lo: float, hi: float) -> float:
        return self._rng.uniform(lo, hi)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    def random(self) -> float:
        return self._rng.random()

    def chance(self, probability: float) -> bool:
        """Return True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._rng.random() < probability

    def randint(self, lo: int, hi: int) -> int:
        return self._rng.randint(lo, hi)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def shuffle(self, seq: list) -> None:
        self._rng.shuffle(seq)

    def bytes(self, n: int) -> bytes:
        return bytes(self._rng.getrandbits(8) for _ in range(n))

    def sample(self, seq: Sequence[T], k: int) -> list:
        return self._rng.sample(seq, k)

    def jittered(self, base: float, jitter: float, floor: float = 0.0) -> float:
        """``base`` plus symmetric uniform jitter, clamped below at ``floor``."""
        return max(floor, base + self._rng.uniform(-jitter, jitter))

    def lossy_jitter_sampler(
        self, loss: float, base: float, jitter: float, floor: float = 0.0
    ) -> Callable[[], Optional[float]]:
        """A fused ``chance(loss)`` then ``jittered(base, jitter, floor)``.

        Each call of the returned function draws exactly what the two calls
        would, from this stream and in the same order, with the same float
        arithmetic: None when the loss draw fires, the jittered value
        otherwise. The loss draw is skipped when ``loss`` is 0 or 1, as in
        :meth:`chance`; the jitter draw is taken even when ``jitter`` is 0.
        One Python call per sample instead of four.
        """
        random_ = self._rng.random
        uniform = self._rng.uniform
        lo = -jitter

        if loss <= 0.0:
            return lambda: max(floor, base + uniform(lo, jitter))
        if loss >= 1.0:
            return lambda: None

        def sample() -> Optional[float]:
            if random_() < loss:
                return None
            return max(floor, base + uniform(lo, jitter))

        return sample

    def maybe(self, probability: float, value: Optional[T], default: Optional[T] = None):
        return value if self.chance(probability) else default


__all__ = ["SeededRng"]
