"""Per-record provenance: why did this URL land in its bucket, at what cost?

Link-rot studies hinge on per-URL outcome attribution — every sampled
link's Figure-4 bucket should be auditable back to the backend traffic
that produced it. :class:`RecordProvenance` is that audit record: the
stage attaches one to every
:class:`~repro.exec.worker.RecordOutcome`, carrying the record's trace
span id (when tracing is on), its wall cost, and the *deltas* of
fetch/CDX/retry activity its stage incurred.

Deltas are measured with :func:`backend_snapshot` before/after the
stage, read duck-typed off whatever backend stack is in play (raw
:class:`~repro.net.fetch.Fetcher`, caching wrappers, fault injectors)
— backends that do not expose a counter simply contribute zero.

Caveat: cache-hit/miss splits are execution-shape-dependent (a shard's
private memo misses where a serial run's shared memo hits), so
per-record ``backend_*`` counts may differ between one-shard and
N-shard runs of the same study. The *issued* counts and the bucket are
shape-independent.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class BackendSnapshot:
    """Point-in-time reading of a (fetcher, cdx) pair's counters."""

    fetches: int = 0
    backend_fetches: int = 0
    cdx_queries: int = 0
    backend_cdx_queries: int = 0
    retries: int = 0
    backoff_ms: float = 0.0


def _retry_reading(client) -> tuple[int, float]:
    counters = getattr(client, "retry_counters", None)
    if counters is None:
        return 0, 0.0
    return counters.retries, counters.backoff_ms


def backend_snapshot(fetcher, cdx) -> BackendSnapshot:
    """Read the current counters off a fetch backend and a CDX backend.

    Works for raw backends (``fetch_count`` / ``query_count``) and the
    caching wrappers (whose ``misses`` refine "reached the backend");
    anything without a counter reads as zero.
    """
    fetches = int(getattr(fetcher, "fetch_count", 0))
    fetch_misses = getattr(fetcher, "misses", None)
    cdx_queries = int(getattr(cdx, "query_count", 0))
    cdx_misses = getattr(cdx, "misses", None)
    f_retries, f_backoff = _retry_reading(fetcher)
    c_retries, c_backoff = _retry_reading(cdx)
    return BackendSnapshot(
        fetches=fetches,
        backend_fetches=int(
            fetch_misses if fetch_misses is not None else fetches
        ),
        cdx_queries=cdx_queries,
        backend_cdx_queries=int(
            cdx_misses if cdx_misses is not None else cdx_queries
        ),
        retries=f_retries + c_retries,
        backoff_ms=f_backoff + c_backoff,
    )


@dataclass(frozen=True, slots=True)
class RecordProvenance:
    """The audit trail of one record's trip through the sharded stage.

    Attributes:
        url: the record's URL.
        bucket: the Figure-4 outcome bucket the probe landed in.
        span_id: the record's trace span id (``None`` when untraced).
        wall_seconds: wall time the record's stage took.
        fetches / backend_fetches: live-web fetches issued / past the
            memo during this record's stage.
        cdx_queries / backend_cdx_queries: likewise for CDX queries.
        retries: transient-failure retries spent on this record.
        backoff_ms: virtual backoff booked on this record.
    """

    url: str
    bucket: str
    span_id: str | None = None
    wall_seconds: float = 0.0
    fetches: int = 0
    backend_fetches: int = 0
    cdx_queries: int = 0
    backend_cdx_queries: int = 0
    retries: int = 0
    backoff_ms: float = 0.0

    @classmethod
    def from_deltas(
        cls,
        url: str,
        bucket: str,
        before: BackendSnapshot,
        after: BackendSnapshot,
        span_id: str | None = None,
        wall_seconds: float = 0.0,
    ) -> "RecordProvenance":
        """Build provenance from a before/after counter pair."""
        return cls(
            url=url,
            bucket=bucket,
            span_id=span_id,
            wall_seconds=wall_seconds,
            fetches=after.fetches - before.fetches,
            backend_fetches=after.backend_fetches - before.backend_fetches,
            cdx_queries=after.cdx_queries - before.cdx_queries,
            backend_cdx_queries=(
                after.backend_cdx_queries - before.backend_cdx_queries
            ),
            retries=after.retries - before.retries,
            backoff_ms=after.backoff_ms - before.backoff_ms,
        )


__all__ = ["BackendSnapshot", "RecordProvenance", "backend_snapshot"]
