"""Deterministic, named random-number streams.

The whole reproduction must be deterministic under a single seed so
that tests and benchmarks are stable. A single shared ``random.Random``
would make every component's draws depend on the order in which other
components happen to run, so instead each component asks the
:class:`RngRegistry` for a stream by name; the stream's seed is derived
from the master seed and the name, making streams independent of each
other and of call order.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections.abc import Sequence
from typing import TypeVar

T = TypeVar("T")


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed from a master seed and a stream name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Stream(random.Random):
    """A named random stream with a few distribution helpers.

    Inherits the full ``random.Random`` API and adds the heavy-tailed
    distributions the world generator needs (Zipf, log-uniform,
    log-normal days).
    """

    def __new__(cls, seed: int, name: str = "") -> "Stream":
        # Before 3.11, random.Random.__new__ takes at most the seed.
        return super().__new__(cls, seed)

    def __init__(self, seed: int, name: str = "") -> None:
        super().__init__(seed)
        self.name = name

    def zipf(self, alpha: float, max_value: int) -> int:
        """Draw from a truncated Zipf distribution on ``1..max_value``.

        Uses inverse-CDF sampling over the normalised harmonic weights.
        ``alpha`` is the decay exponent; larger means heavier head.
        """
        if max_value < 1:
            raise ValueError("max_value must be >= 1")
        # Inverse transform on the discrete CDF. max_value is small
        # enough in our use (<= a few thousand) for a linear scan.
        weights = [1.0 / (k ** alpha) for k in range(1, max_value + 1)]
        total = sum(weights)
        target = self.random() * total
        acc = 0.0
        for k, weight in enumerate(weights, start=1):
            acc += weight
            if acc >= target:
                return k
        return max_value

    def log_uniform(self, low: float, high: float) -> float:
        """Draw a value whose logarithm is uniform on [log low, log high]."""
        if low <= 0 or high <= 0 or high < low:
            raise ValueError("log_uniform requires 0 < low <= high")
        return math.exp(self.uniform(math.log(low), math.log(high)))

    def lognormal_days(self, median_days: float, sigma: float) -> float:
        """Draw a positive duration in days with the given median.

        Log-normal with ``mu = ln(median)``; used for crawl delays and
        page lifetimes, both of which the paper observes to span from
        days to years (Figure 5's log-scale x-axis).
        """
        if median_days <= 0:
            raise ValueError("median_days must be positive")
        return self.lognormvariate(math.log(median_days), sigma)

    def poisson(self, lam: float) -> int:
        """Draw from Poisson(lam) (Knuth's method; lam is small here)."""
        if lam < 0:
            raise ValueError("lam must be non-negative")
        if lam == 0:
            return 0
        threshold = math.exp(-lam)
        count = 0
        product = self.random()
        while product > threshold:
            count += 1
            product *= self.random()
        return count

    def weighted_choice(self, options: Sequence[tuple[T, float]]) -> T:
        """Pick one option from ``(value, weight)`` pairs."""
        if not options:
            raise ValueError("weighted_choice requires at least one option")
        values = [value for value, _ in options]
        weights = [weight for _, weight in options]
        return self.choices(values, weights=weights, k=1)[0]

    def chance(self, probability: float) -> bool:
        """Bernoulli draw."""
        return self.random() < probability


class RngRegistry:
    """Factory for independent named random streams under one master seed."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: dict[str, Stream] = {}

    def stream(self, name: str) -> Stream:
        """Return the stream for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* stream
        object (so draws continue rather than restart).
        """
        if name not in self._streams:
            self._streams[name] = Stream(derive_seed(self.master_seed, name), name)
        return self._streams[name]

    def fork(self, name: str) -> "RngRegistry":
        """A child registry whose master seed is derived from ``name``.

        Useful for giving each generated site its own independent
        universe of streams.
        """
        return RngRegistry(derive_seed(self.master_seed, f"fork:{name}"))

    def __repr__(self) -> str:
        return (
            f"RngRegistry(master_seed={self.master_seed}, "
            f"streams={sorted(self._streams)})"
        )
