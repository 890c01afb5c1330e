"""LRU+TTL result cache for the link-status service.

Index answers are pure given an index version, so a response cached
under one version is exactly the response the index would recompute —
the only reasons to evict are capacity (LRU) and staleness policy
(TTL, so a redeployed index behind the same key space ages out on a
schedule rather than serving forever).

Time is the service's **virtual clock**: milliseconds since the
workload epoch, threaded through every call. Nothing here reads a wall
clock, which is what makes hit/miss/eviction sequences — and therefore
the service benchmarks — exactly reproducible.

The request path, not a backend call, decides what to store, so the
cache is used imperatively (``get``/``put``). Counters live in the
shared :class:`~repro.obs.metrics.MetricsRegistry` under
``service.cache.*``, the same registry the rest of the service folds
into.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any

from ..obs.metrics import BoundInstrument, MetricsRegistry

__all__ = ["ResultCache"]


class ResultCache:
    """A bounded memo of (key → response body) with per-entry TTL.

    Args:
        capacity: maximum live entries; inserting past it evicts the
            least-recently-used entry (``service.cache.evictions``).
        ttl_ms: entry lifetime on the virtual clock; a hit at or past
            ``stored_at + ttl_ms`` is a miss and expires the entry
            (``service.cache.expirations``). ``None`` never expires.
        metrics: registry receiving the counters; a private registry
            is created when omitted (tests that only care about
            behaviour stay one-liner).
    """

    _hits_total = BoundInstrument("counter", "service.cache.hits")
    _misses_total = BoundInstrument("counter", "service.cache.misses")
    _expirations_total = BoundInstrument(
        "counter", "service.cache.expirations"
    )
    _evictions_total = BoundInstrument("counter", "service.cache.evictions")
    _size = BoundInstrument("gauge", "service.cache.size")

    def __init__(
        self,
        capacity: int = 1024,
        ttl_ms: float | None = 60_000.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if ttl_ms is not None and ttl_ms <= 0:
            raise ValueError("ttl_ms must be positive (or None)")
        self.capacity = capacity
        self.ttl_ms = ttl_ms
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._entries: OrderedDict[str, tuple[Any, float]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def get(self, key: str, now_ms: float) -> Any | None:
        """The cached body for ``key``, or None on miss/expiry.

        A hit refreshes the key's LRU position (but not its TTL —
        entries age from their store time, so a hot key still ages
        out and re-reads the index on schedule).
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self._misses_total.inc()
            return None
        body, stored_at = entry
        if self.ttl_ms is not None and now_ms - stored_at >= self.ttl_ms:
            del self._entries[key]
            self.expirations += 1
            self._expirations_total.inc()
            self.misses += 1
            self._misses_total.inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        self._hits_total.inc()
        return body

    def put(self, key: str, body: Any, now_ms: float) -> None:
        """Store ``body`` under ``key`` as of ``now_ms``."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = (body, now_ms)
        while len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1
            self._evictions_total.inc()
        self._size.set(len(entries))
