"""The per-record stage of the study, in shard-friendly form.

One record's §3 live probe, §4.1 census, §4.2 redirect validation, and
§3 first-post-marking-copy check depend only on that record plus the
(read-only) live web and archive — never on any other record. That
independence is what lets :class:`~repro.exec.executor.StudyExecutor`
cut the record list into shards and still produce a byte-identical
result: :func:`run_record_stage` is the unit of work each shard runs
over its records. It measures its own wall time and backend-counter
deltas into a :class:`~repro.obs.provenance.RecordProvenance` (and,
when tracing is on, a ``kind="record"`` span), and counts its bucket
into the run's :class:`~repro.obs.metrics.MetricsRegistry`.

``repro.analysis.study`` imports this package back, and importing any
``repro.analysis`` submodule runs the package ``__init__`` (which
imports ``study``), so the analysis imports here are deferred to the
first :func:`run_record_stage` call, which makes them once — that
keeps ``repro.exec`` importable on its own, whichever side of the
cycle loads first.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING

from ..archive.cdx import AsOfCdx, CdxApi
from ..backends.stacks import CdxBackend, FetchBackend
from ..clock import SimTime
from ..dataset.records import LinkRecord
from ..net.fetch import Fetcher
from ..obs.metrics import MetricsRegistry
from ..obs.provenance import RecordProvenance, backend_snapshot
from ..obs.trace import Tracer

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


@cache
def _analysis():
    """The analysis callables the stage runs, imported on first use."""
    from ..analysis.archived_soft404 import archived_copy_erroneous
    from ..analysis.copies import census_link
    from ..analysis.live_status import LiveProbe
    from ..analysis.redirects import RedirectValidator

    return archived_copy_erroneous, census_link, LiveProbe, RedirectValidator


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
    spans, and ``metrics`` counts the record's bucket and wall time.

    ``at`` is the record's probe instant (the live pipeline hands each
    record its own); ``bound_archive`` additionally clamps every CDX
    query to captures at or before it (see
    :class:`~repro.archive.cdx.AsOfCdx`), the posture under which a
    cached outcome stays valid while the archive keeps growing.
    """
    (
        archived_copy_erroneous, census_link, LiveProbe, RedirectValidator
    ) = _analysis()
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

