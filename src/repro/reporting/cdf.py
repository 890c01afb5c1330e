"""Empirical CDFs, the paper's figure format of choice.

Figures 3, 5, and 6 are all CDFs; this module computes them and
evaluates them at arbitrary points (for table-form comparisons and for
Kolmogorov-Smirnov-style closeness checks between the "our dataset"
and "random sample" series).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Ecdf:
    """An empirical CDF over a sorted sample."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        values = self.values
        if any(b < a for a, b in zip(values, values[1:])):
            raise ValueError("Ecdf values must be sorted")

    @property
    def n(self) -> int:
        """Sample size."""
        return len(self.values)

    def at(self, x: float) -> float:
        """F(x) = P(value <= x)."""
        if not self.values:
            return 0.0
        return bisect_right(self.values, x) / self.n

    def quantile(self, q: float) -> float:
        """The smallest value v with F(v) >= q."""
        if not self.values:
            raise ValueError("quantile of an empty Ecdf")
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        # The smallest k with k/n >= q is ceil(q*n) in exact
        # arithmetic; the follow-up check repairs the one-off case
        # where q*n rounded up across an integer (e.g. 0.7 * 10).
        index = min(max(math.ceil(q * self.n) - 1, 0), self.n - 1)
        if index > 0 and index / self.n >= q:
            index -= 1
        return self.values[index]

    def series(self, points: int = 50) -> list[tuple[float, float]]:
        """(x, F(x)) pairs suitable for plotting or printing.

        Tied sample values land on the same (x, F) point whatever
        index sampled them; such repeats are emitted once.
        """
        if not self.values:
            return []
        pairs: list[tuple[float, float]] = []
        step = max(len(self.values) // points, 1)
        for index in range(0, len(self.values), step):
            x = self.values[index]
            pair = (x, self.at(x))
            if not pairs or pairs[-1] != pair:
                pairs.append(pair)
        last = self.values[-1]
        if pairs[-1][0] != last:
            pairs.append((last, 1.0))
        return pairs

    def ks_distance(self, other: "Ecdf") -> float:
        """Kolmogorov-Smirnov statistic between two ECDFs.

        The paper's representativeness check ("largely identical"
        distributions between its dataset and a fully random sample)
        is quantified with this.
        """
        if not self.values or not other.values:
            return 1.0 if bool(self.values) != bool(other.values) else 0.0
        return ks_distance(self.values, other.values)


def ks_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """``max |F_a(x) - F_b(x)|`` over the union grid of two non-empty
    *sorted* samples.

    One merge walk over both samples: at each distinct value ``x`` the
    two indices stop past every copy of ``x``, so ``i / n_a`` is
    exactly ``bisect_right(a, x) / n_a``. Once one sample runs out its
    F is 1 and the other's only grows, so later grid points cannot
    raise the maximum.
    """
    n_a, n_b = len(a), len(b)
    i = j = 0
    best = 0.0
    while i < n_a and j < n_b:
        x = a[i] if a[i] <= b[j] else b[j]
        while i < n_a and a[i] <= x:
            i += 1
        while j < n_b and b[j] <= x:
            j += 1
        gap = abs(i / n_a - j / n_b)
        if gap > best:
            best = gap
    return best


def ecdf(sample: list[float] | list[int]) -> Ecdf:
    """Build an :class:`Ecdf` from an unsorted sample."""
    return Ecdf(values=tuple(sorted(float(v) for v in sample)))
