"""Zipf-distributed sampling over a finite catalogue.

File read popularity "follows the Zipf distribution with the skewness
parameter ρ = 1.1" (§6.1.1).  Rank ``k`` (1-based) has probability
proportional to ``k ** -s``; sampling is O(log N) via bisection over the
precomputed CDF.
"""

from __future__ import annotations

import bisect
from random import Random
from typing import List


class ZipfSampler:
    """Finite Zipf sampler over ranks ``0 .. n-1`` (rank 0 most popular)."""

    def __init__(self, n: int, skew: float = 1.1):
        if n < 1:
            raise ValueError(f"catalogue size must be >= 1, got {n}")
        if skew < 0:
            raise ValueError(f"skew must be non-negative, got {skew}")
        self.n = n
        self.skew = skew
        weights = [(k + 1) ** (-skew) for k in range(n)]
        total = sum(weights)
        self._cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            self._cdf.append(acc)
        self._cdf[-1] = 1.0  # guard against rounding

    def sample(self, rng: Random) -> int:
        """Draw one rank."""
        return bisect.bisect_left(self._cdf, rng.random())

    def probability(self, rank: int) -> float:
        """Exact probability of one rank."""
        if not 0 <= rank < self.n:
            raise IndexError(f"rank {rank} out of range 0..{self.n - 1}")
        low = self._cdf[rank - 1] if rank > 0 else 0.0
        return self._cdf[rank] - low
