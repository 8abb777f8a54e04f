"""Seeded random sources for workload generation.

Experiments must be reproducible, so every stochastic decision in the
library flows through a :class:`SeededRng` owned by the experiment
driver.  The class is a thin wrapper around :class:`random.Random`
adding a few distributions used by the workload generator (bounded
normals, zipf-like popularity) without pulling in numpy for the core
library.
"""

from __future__ import annotations

import random
from typing import Sequence, TypeVar

T = TypeVar("T")


class SeededRng:
    """Deterministic random source with workload-oriented helpers."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self.seed = seed

    # -- passthroughs ------------------------------------------------------

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._rng.random()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return self._rng.randint(lo, hi)

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform float in [lo, hi]."""
        return self._rng.uniform(lo, hi)

    def choice(self, seq: Sequence[T]) -> T:
        """Uniformly choose one element of *seq*."""
        return self._rng.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        """Choose *k* distinct elements of *seq*."""
        return self._rng.sample(seq, k)

    def shuffle(self, items: list[T]) -> None:
        """Shuffle *items* in place."""
        self._rng.shuffle(items)

    # -- derived distributions --------------------------------------------

    def bounded_normal(self, mean: float, sd: float,
                       lo: float, hi: float) -> float:
        """Normal sample clamped to [lo, hi].

        Used for tool running times: mostly near the mean, never
        negative, never absurdly long.
        """
        value = self._rng.gauss(mean, sd)
        return max(lo, min(hi, value))

    def zipf_index(self, n: int, skew: float = 1.0) -> int:
        """Return an index in [0, n) with zipf-like popularity skew.

        Index 0 is the most popular.  ``skew=0`` degenerates to uniform.
        """
        if n <= 0:
            raise ValueError("zipf_index requires n >= 1")
        if skew <= 0:
            return self._rng.randrange(n)
        weights = [1.0 / ((i + 1) ** skew) for i in range(n)]
        total = sum(weights)
        point = self._rng.random() * total
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if point <= acc:
                return i
        return n - 1

    def bernoulli(self, p: float) -> bool:
        """True with probability *p*."""
        return self._rng.random() < p

    def fork(self, salt: int) -> "SeededRng":
        """Derive an independent child stream (per-agent streams)."""
        return SeededRng(self.seed * 1_000_003 + salt)
