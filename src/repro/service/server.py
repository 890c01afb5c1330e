"""The serving surface every tier shares: config, response, result.

One engine serves every topology: :class:`~repro.service.cluster.
ClusterService`, a discrete-event simulation on the service's virtual
millisecond clock (arrivals, token accruals, batch deadlines, replica
fault transitions, reconfigurations, and lookup completions all
happen at exact computed instants), so every response — status,
body, *and* latency — is a pure function of ``(index, config,
workload, faults)``.

:class:`LinkStatusService`, the single node, is that engine pinned to
one shard × one replica; it takes no topology argument and holds no
serving logic of its own. This module holds what both share:
:class:`ServerConfig` (capacity and policy knobs), :class:`Response`
(one served request), :class:`ServiceResult` (a run's responses plus
derived rates), :func:`answer` (the pure query function the engine
batches and caches), and :func:`key_latency_ms` (the per-key virtual
lookup cost).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import NamedTuple

from ..obs.metrics import DEFAULT_LATENCY_BOUNDS_MS, MetricsRegistry
from ..reporting.cdf import ecdf
from .index import LinkStatusIndex
from .reconfig import ReconfigEvent

__all__ = [
    "LinkStatusService",
    "Response",
    "ServerConfig",
    "ServiceResult",
    "key_latency_ms",
]

_UNIT_DENOM = float(2**64)

#: Histogram bounds for virtual response latency, in milliseconds —
#: the service-tier preset from :mod:`repro.obs.metrics` (dense
#: through the single-digit-ms range one lookup lives in).
LATENCY_BOUNDS_MS: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS_MS


@dataclass(frozen=True)
class ServerConfig:
    """Capacity and policy knobs for one service instance."""

    #: Token-bucket steady rate (admissions per virtual second).
    rate_rps: float = 2_000.0
    #: Token-bucket burst capacity.
    burst: int = 16
    #: Bounded-queue depth; arrivals past it are shed with a 429.
    queue_limit: int = 64
    #: Micro-batch flush threshold.
    max_batch: int = 8
    #: Micro-batch deadline (virtual ms) — the tail-latency promise.
    max_wait_ms: float = 2.0
    #: Result-cache capacity (entries) and TTL (virtual ms).
    cache_capacity: int = 1_024
    cache_ttl_ms: float | None = 60_000.0
    #: Base virtual cost of one index lookup; each key pays a
    #: deterministic multiplier in [0.5, 1.5) derived from its hash.
    index_latency_ms: float = 4.0
    #: Virtual cost of serving a batch-time cache hit.
    cache_hit_latency_ms: float = 0.5


class Response(NamedTuple):
    """One served request: status, body, and exact virtual timing.

    ``source`` says how the answer was produced: ``"index"`` (carrier
    of a fresh lookup), ``"coalesced"`` (shared a batchmate's lookup),
    ``"cache"`` (batch-time cache hit), or ``"shed"`` (429 before any
    computation).

    An immutable value: equality and hash go by the fields. It is a
    named tuple because the serving loop builds one per request, and a
    tuple is built in a fraction of a frozen dataclass's time.
    """

    request_id: int
    status: int
    body: object
    arrival_ms: float
    start_ms: float
    completion_ms: float
    source: str
    index_version: str

    @property
    def latency_ms(self) -> float:
        """Arrival-to-completion virtual latency."""
        return self.completion_ms - self.arrival_ms

    @property
    def shed(self) -> bool:
        """Whether the request was rejected rather than answered.

        429 is admission control (rate/quota); 503 is "no replica of
        the owning shard recovered in time" (replica faults only).
        """
        return self.status in (429, 503)

    def to_wire(self) -> bytes:
        """The canonical serialized answer — what equivalence means.

        Timing fields are deliberately excluded: the answer surface a
        client sees is ``(status, body, index version)``, and that is
        the surface the differential tests compare byte-for-byte
        across topologies, router policies, and fault plans. Latency
        is the *documented* degradation dimension, not part of the
        answer.
        """
        return json.dumps(
            {
                "rid": self.request_id,
                "status": self.status,
                "body": self.body,
                "index_version": self.index_version,
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode("utf-8")


@dataclass
class ServiceResult:
    """Everything one serving run produced, plus derived rates."""

    responses: list[Response]
    metrics: MetricsRegistry
    index_version: str
    mode: str
    #: Every generation that served during the run, in install order
    #: (initial index first, then each swap). Single-generation runs
    #: carry the one version; ``index_version`` stays the *final*
    #: generation — the one a client connecting now would see.
    index_versions: tuple[str, ...] = ()
    #: Every applied reconfiguration (swap/delta/rebalance), in apply
    #: order, with scheduled vs applied instants — the drain lag the
    #: SLO layer grades via ``events_from_reconfigs``.
    reconfig_events: tuple[ReconfigEvent, ...] = ()
    #: The fleet's own accounting: topology, router policy, the
    #: replica fault schedule, and every replica id.
    n_shards: int = 1
    replicas_per_shard: int = 1
    policy: str = "round_robin"
    fault_events: tuple = ()
    replica_ids: tuple[str, ...] = ()

    @property
    def offered(self) -> int:
        return len(self.responses)

    @property
    def completed(self) -> list[Response]:
        """Responses that were actually served (not shed)."""
        return [r for r in self.responses if not r.shed]

    @property
    def shed_ids(self) -> tuple[int, ...]:
        """Request ids rejected by admission control, in id order."""
        return tuple(r.request_id for r in self.responses if r.shed)

    @property
    def shed_rate(self) -> float:
        return len(self.shed_ids) / self.offered if self.offered else 0.0

    @property
    def redispatches(self) -> int:
        return self.metrics.counter("service.cluster.redispatches").int_value

    @property
    def quota_shed_ids(self) -> tuple[int, ...]:
        """Request ids shed by per-tenant quotas (a subset of 429s)."""
        return tuple(
            r.request_id
            for r in self.responses
            if r.status == 429 and r.source == "quota"
        )

    @property
    def unavailable_ids(self) -> tuple[int, ...]:
        """Request ids shed 503 after exhausting dispatch attempts."""
        return tuple(
            r.request_id for r in self.responses if r.status == 503
        )

    def replica_digest(self) -> dict[str, dict[str, float]]:
        """Per-replica counter families, read back from the registry."""
        digest: dict[str, dict[str, float]] = {}
        for replica_id in self.replica_ids:
            prefix = f"service.replica.{replica_id}."
            counters = self.metrics.counters(prefix)
            digest[replica_id] = {
                name[len(prefix):]: value for name, value in counters.items()
            }
        return digest

    @property
    def duration_ms(self) -> float:
        """Virtual makespan: first arrival to last completion."""
        if not self.responses:
            return 0.0
        start = min(r.arrival_ms for r in self.responses)
        end = max(r.completion_ms for r in self.responses)
        return max(end - start, 0.0)

    @property
    def throughput_rps(self) -> float:
        """Served requests per virtual second of makespan."""
        duration_s = self.duration_ms / 1000.0
        return len(self.completed) / duration_s if duration_s > 0 else 0.0

    def latency_quantile(self, q: float) -> float:
        """Virtual latency quantile over served requests (exact ECDF)."""
        completed = self.completed
        if not completed:
            return 0.0
        return ecdf([r.latency_ms for r in completed]).quantile(q)

    @property
    def cache_hit_rate(self) -> float:
        """Share of batch-time cache reads that hit."""
        hits = self.metrics.counter("service.cache.hits").value
        misses = self.metrics.counter("service.cache.misses").value
        total = hits + misses
        return hits / total if total else 0.0

    def as_dict(self) -> dict:
        """JSON-ready digest (what the benchmark records per level)."""
        return {
            "mode": self.mode,
            "index_version": self.index_version,
            "offered": self.offered,
            "served": len(self.completed),
            "shed": len(self.shed_ids),
            "shed_rate": round(self.shed_rate, 6),
            "throughput_rps": round(self.throughput_rps, 3),
            "p50_ms": round(self.latency_quantile(0.5), 6),
            "p99_ms": round(self.latency_quantile(0.99), 6),
            "cache_hit_rate": round(self.cache_hit_rate, 6),
            "index_lookups": self.metrics.counter(
                "service.index.lookups"
            ).int_value,
            "coalesced": self.metrics.counter(
                "service.batch.coalesced"
            ).int_value,
            "n_shards": self.n_shards,
            "replicas_per_shard": self.replicas_per_shard,
            "policy": self.policy,
            "redispatches": self.redispatches,
            "unavailable": len(self.unavailable_ids),
            "quota_shed": len(self.quota_shed_ids),
            "fault_events": len(self.fault_events),
        }

    def summary(self) -> str:
        """Multi-line digest for logs and the demo CLI."""
        return "\n".join(
            [
                (
                    f"service[{self.mode}] index {self.index_version}: "
                    f"{self.offered} offered, {len(self.completed)} served, "
                    f"{len(self.shed_ids)} shed "
                    f"({self.shed_rate:.1%})"
                ),
                (
                    f"latency p50/p99 {self.latency_quantile(0.5):.2f}/"
                    f"{self.latency_quantile(0.99):.2f} ms (virtual); "
                    f"throughput {self.throughput_rps:.0f} rps"
                ),
                (
                    f"cache hit rate {self.cache_hit_rate:.1%}; "
                    f"index lookups "
                    f"{self.metrics.counter('service.index.lookups').int_value}; "
                    f"coalesced "
                    f"{self.metrics.counter('service.batch.coalesced').int_value}"
                ),
            ]
        )


def key_latency_ms(version: str, key: str, base_ms: float) -> float:
    """Virtual cost of one index lookup for ``key`` (pre-fault).

    Base cost times a hash-derived multiplier in [0.5, 1.5): the
    latency *distribution* is non-degenerate (p50 ≠ p99) while each
    key's cost is a pure function of the index version. Every replica
    serves under its parent snapshot's version, so each key costs the
    same on every shard of every topology, which is what keeps the
    faults-off latency surface identical across them.
    """
    digest = hashlib.sha256(f"{version}:{key}".encode("utf-8")).digest()
    unit = int.from_bytes(digest[:8], "big") / _UNIT_DENOM
    return base_ms * (0.5 + unit)


def answer(index: LinkStatusIndex, kind: str, target: str) -> tuple[int, object]:
    """The pure query function the service batches and caches.

    Returns ``(status, body)``; it only reads the immutable index.
    """
    if kind == "url":
        entry = index.lookup(target)
        if entry is None:
            return 404, None
        return 200, entry.to_body()
    if kind == "domain":
        entries = index.by_domain(target)
        if not entries:
            return 404, None
        buckets: dict[str, int] = {}
        for entry in entries:
            buckets[entry.bucket] = buckets.get(entry.bucket, 0) + 1
        return 200, {
            "domain": target,
            "urls": [entry.url for entry in entries],
            "buckets": buckets,
        }
    if kind == "bucket_counts":
        return 200, index.bucket_counts()
    if kind == "quantile":
        metric, _, q_text = target.rpartition(":")
        try:
            value = index.quantile(metric, float(q_text))
        except (KeyError, ValueError):
            return 400, None
        return 200, {"metric": metric, "q": float(q_text), "value": value}
    return 400, None


def __getattr__(name: str):
    # The single node is the engine pinned to 1×1, so it lives beside
    # the engine in :mod:`repro.service.cluster`, which imports this
    # module's types — resolved on first access to break the cycle.
    if name == "LinkStatusService":
        from .cluster import LinkStatusService

        return LinkStatusService
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
