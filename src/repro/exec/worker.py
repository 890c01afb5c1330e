"""The per-record stage of the study, in shard-friendly form.

One record's §3 live probe, §4.1 census, §4.2 redirect validation, and
§3 first-post-marking-copy check depend only on that record plus the
(read-only) live web and archive — never on any other record. That
independence is what lets :class:`~repro.exec.executor.StudyExecutor`
shard the record list across processes and still merge a byte-identical
result: this module is the unit of work each shard runs.

:func:`run_shard` runs one contiguous span of records, in-process or
in a pool worker alike. It builds fresh memo caches, counts into a
private :class:`~repro.obs.metrics.MetricsRegistry` (cache hits and
misses, retry deltas, record buckets), and buffers its trace spans, so
the parent folds every shard the same way: one registry merge, one
wall-time reading, one span adoption. Each record stage also measures
its own wall time and backend-counter deltas into a
:class:`~repro.obs.provenance.RecordProvenance` (and, when tracing is
on, a ``kind="record"`` span).

``repro.analysis.study`` imports this package back, and importing any
``repro.analysis`` submodule runs the package ``__init__`` (which
imports ``study``), so analysis imports here are deferred to call time
in :func:`run_record_stage` — that keeps ``repro.exec`` importable on
its own, whichever side of the cycle loads first.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..archive.cdx import CdxApi
from ..backends.stacks import CdxBackend, FetchBackend
from ..clock import SimTime
from ..dataset.records import LinkRecord
from ..net.fetch import Fetcher
from ..obs.metrics import MetricsRegistry
from ..obs.provenance import RecordProvenance, backend_snapshot
from ..obs.trace import Span, Tracer
from ..retry import RetryPolicy
from .stats import backend_counts

if TYPE_CHECKING:
    from ..analysis.copies import CopyCensus
    from ..analysis.live_status import LiveProbe

#: How many 3xx copies per link to cross-examine before concluding no
#: valid redirect copy exists (keeps §4.2 cost bounded per link).
MAX_REDIRECT_COPIES_PER_LINK = 8


@dataclass(frozen=True, slots=True)
class RecordOutcome:
    """Everything the study learns about one record, order-free.

    ``provenance`` is the record's cost audit (bucket, span id,
    backend-traffic deltas); it is execution-shape-dependent at the
    cache-hit level and therefore excluded from any cross-run
    equivalence reasoning — the measurement fields above it are not.
    """

    probe: LiveProbe
    census: CopyCensus
    has_valid_redirect_copy: bool
    first_post_marking_erroneous: bool | None
    provenance: RecordProvenance | None = None

    @property
    def record(self) -> LinkRecord:
        """The record this outcome describes."""
        return self.probe.record


@dataclass(frozen=True, slots=True)
class ShardResult:
    """One shard's outcomes plus everything the parent folds from it.

    ``metrics`` is the shard's registry: fetch and CDX hits and misses,
    retry deltas, record buckets and wall histograms, under the names
    :class:`~repro.exec.stats.StudyStats` reads. ``wall_seconds`` is
    the shard's own wall time, kept apart because shard walls fold by
    min/max (see :meth:`~repro.exec.stats.StudyStats.add_shard_wall`);
    ``trace_spans`` is its buffered trace, adopted by the parent tracer.
    """

    start: int
    outcomes: tuple[RecordOutcome, ...]
    wall_seconds: float
    metrics: MetricsRegistry
    trace_spans: tuple[Span, ...] = ()


def run_record_stage(
    record: LinkRecord,
    fetcher: Fetcher | FetchBackend,
    cdx: CdxApi | CdxBackend,
    at: SimTime,
    max_redirect_copies: int = MAX_REDIRECT_COPIES_PER_LINK,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    bound_archive: bool = False,
) -> RecordOutcome:
    """Run the sharded portion of the pipeline for one record.

    Always attaches provenance (the counter deltas are nearly free);
    ``tracer`` adds a ``record`` span enclosing the stage's backend
    spans, and ``metrics`` buffers the record's bucket and wall time.

    ``at`` is the record's probe instant (the live pipeline hands each
    record its own); ``bound_archive`` additionally clamps every CDX
    query to captures at or before it (see
    :class:`~repro.archive.cdx.AsOfCdx`), the posture under which a
    cached outcome stays valid while the archive keeps growing.
    """
    from ..analysis.archived_soft404 import archived_copy_erroneous
    from ..analysis.copies import census_link
    from ..analysis.live_status import LiveProbe
    from ..analysis.redirects import RedirectValidator
    from ..archive.cdx import AsOfCdx

    stage_cdx = AsOfCdx(cdx, at) if bound_archive else cdx
    before = backend_snapshot(fetcher, cdx)
    start = time.perf_counter()
    with (
        tracer.span("record", kind="record", sim=at, url=record.url)
        if tracer is not None
        else nullcontext()
    ) as span:
        probe = LiveProbe(record=record, result=fetcher.fetch(record.url, at))
        census = census_link(record, stage_cdx)

        has_valid_redirect = False
        if not census.has_pre_marking_200 and census.has_pre_marking_3xx:
            validator = RedirectValidator(stage_cdx)
            for snapshot in census.pre_marking_3xx[:max_redirect_copies]:
                if validator.validate(snapshot).valid:
                    has_valid_redirect = True
                    break

        first_post = census.first_post_marking
        post_erroneous = (
            archived_copy_erroneous(first_post, stage_cdx)
            if first_post is not None
            else None
        )
    wall = time.perf_counter() - start

    bucket = probe.result.outcome.value
    provenance = RecordProvenance.from_deltas(
        url=record.url,
        bucket=bucket,
        before=before,
        after=backend_snapshot(fetcher, cdx),
        span_id=span.span_id if span is not None else None,
        wall_seconds=wall,
    )
    if span is not None:
        span.set(
            bucket=bucket,
            fetches=provenance.fetches,
            cdx_queries=provenance.cdx_queries,
            retries=provenance.retries,
        )
        span.add_virtual_ms(provenance.backoff_ms)
    if metrics is not None:
        metrics.counter("records.traced").inc()
        metrics.counter(f"records.bucket/{bucket}").inc()
        metrics.histogram("record.wall_s").observe(wall)
    return RecordOutcome(
        probe=probe,
        census=census,
        has_valid_redirect_copy=has_valid_redirect,
        first_post_marking_erroneous=post_erroneous,
        provenance=provenance,
    )


# -- shards ---------------------------------------------------------------------

@dataclass
class WorkerContext:
    """Everything a shard needs besides its span."""

    records: list[LinkRecord]
    fetcher: Fetcher
    cdx: CdxApi
    at: SimTime
    retry_policy: RetryPolicy | None = None
    #: Whether shards should buffer trace spans for the parent tracer.
    trace: bool = False
    #: Per-URL probe instants overriding ``at`` (live pipeline).
    at_overrides: dict[str, SimTime] | None = None
    #: Clamp CDX queries to each record's probe instant (live pipeline).
    bound_archive: bool = False


#: A pool worker's context, installed once per process by the pool
#: initializer (under ``fork`` the initializer's arguments are
#: inherited, not pickled).
_CONTEXT: WorkerContext | None = None


def set_context(context: WorkerContext | None) -> None:
    """Install the worker context in this process."""
    global _CONTEXT
    _CONTEXT = context


def run_shard(
    span: tuple[int, int], context: WorkerContext | None = None
) -> ShardResult:
    """Run the record stage over ``records[start:stop]`` of the context.

    ``context`` defaults to the one :func:`set_context` installed in
    this process (a pool worker); the in-process path passes it.

    Each shard gets fresh memo caches: links in one shard share sibling
    scopes far more often than links across shards, so per-shard caches
    capture most of the repetition without any cross-process traffic.
    Its counters, trace spans (ids prefixed ``w{start}.`` so parent
    adoption cannot collide) and wall clock all travel back in the
    :class:`ShardResult`.
    """
    context = context if context is not None else _CONTEXT
    if context is None:
        raise RuntimeError("worker context not initialised")
    start, stop = span
    tracer = Tracer(prefix=f"w{start}.") if context.trace else None
    metrics = MetricsRegistry()
    fetcher = FetchBackend(context.fetcher, tracer=tracer)
    cdx = CdxBackend(
        context.cdx, retry_policy=context.retry_policy, tracer=tracer
    )
    overrides = context.at_overrides or {}
    wall_start = time.perf_counter()
    with backend_counts(metrics, fetcher, cdx), (
        tracer.span("shard", kind="shard", start=start, stop=stop)
        if tracer is not None
        else nullcontext()
    ):
        outcomes = tuple(
            run_record_stage(
                record,
                fetcher,
                cdx,
                overrides.get(record.url, context.at),
                tracer=tracer,
                metrics=metrics,
                bound_archive=context.bound_archive,
            )
            for record in context.records[start:stop]
        )
    return ShardResult(
        start=start,
        outcomes=outcomes,
        wall_seconds=time.perf_counter() - wall_start,
        metrics=metrics,
        trace_spans=tuple(tracer.spans) if tracer is not None else (),
    )
