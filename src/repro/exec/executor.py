"""Sharded execution of the study's per-record stages.

:class:`StudyExecutor` splits the record list into contiguous spans
and runs the per-record stage (§3 probe, §4.1 census, §4.2 redirect
validation, §3 post-marking check) over each with
:func:`~repro.exec.worker.run_shard`, one after another in the calling
process. Every shard builds its own caches and reports back a
:class:`~repro.exec.worker.ShardResult`, which the executor folds in
record order, so a seeded study run produces a byte-identical report
whatever the shard count: the stage is a pure function of each
record, and everything order-sensitive (the soft-404 detector's RNG
stream, the §5 aggregations) runs after the stage.

The caller also receives a fetch memo pre-seeded with every probe
result, so follow-up phases (soft-404 re-fetches) hit the memo instead
of the network.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..archive.cdx import CdxApi
from ..backends.stacks import CdxBackend, FetchBackend
from ..clock import SimTime
from ..dataset.records import LinkRecord
from ..net.fetch import Fetcher
from ..obs.trace import Tracer
from ..retry import RetryPolicy
from .stats import StudyStats
from .worker import RecordOutcome, ShardContext, run_shard


@dataclass
class StageResult:
    """Merged output of the sharded stage.

    Attributes:
        outcomes: one :class:`RecordOutcome` per record, in input order.
        fetcher: caller-side memoizing fetch stack, pre-seeded with
            every probe result — later phases should fetch through it.
        cdx: caller-side memoizing CDX stack for the later phases.
        shards: how many shards actually ran.
    """

    outcomes: list[RecordOutcome]
    fetcher: FetchBackend
    cdx: CdxBackend
    shards: int = 1


@dataclass
class StudyExecutor:
    """Runs the per-record stage as contiguous in-process shards.

    Args:
        workers: how many shards to cut the records into, each with
            fresh memo caches (never more than there are records).
            Any count yields the same outcomes, as the
            shard-equivalence tests check; more shards only lose
            cache reuse.
    """

    workers: int = 1

    def execute(
        self,
        records: list[LinkRecord],
        fetcher: Fetcher,
        cdx: CdxApi,
        at: SimTime,
        stats: StudyStats | None = None,
        tracer: Tracer | None = None,
        at_overrides: dict[str, SimTime] | None = None,
        bound_archive: bool = False,
        retry_policy: RetryPolicy | None = None,
    ) -> StageResult:
        """Run the stage over ``records`` and merge in record order.

        ``fetcher`` and ``cdx`` are the *raw* backends; the executor
        owns the caching, and ``retry_policy`` arms every CDX client it
        builds (``None`` never retries; the fetcher retries inside
        itself). Each shard's metrics registry, wall time and trace
        spans are folded into ``stats`` / ``tracer`` immediately; the
        returned caller-side caches carry their own counters (and emit
        into ``tracer``) for the phases that follow.

        ``at_overrides`` gives individual records their own probe
        instants (URL-keyed; everything else probes at ``at``), and
        ``bound_archive`` freezes each record's CDX horizon at its
        probe instant — the live pipeline's posture, where records
        carry different staleness and the archive keeps growing.
        """
        context = ShardContext(
            records=records,
            fetcher=fetcher,
            cdx=cdx,
            at=at,
            retry_policy=retry_policy,
            trace=tracer is not None,
            at_overrides=at_overrides,
            bound_archive=bound_archive,
        )
        # No records (a live build with nothing dirty) still runs one
        # empty shard, so the stats report one shard and its wall.
        spans = _shard_spans(len(records), self.workers) or [(0, 0)]
        outcomes: list[RecordOutcome] = []
        for span in spans:
            shard = run_shard(span, context)
            outcomes.extend(shard.outcomes)
            if stats is not None:
                stats.registry.merge(shard.metrics)
                stats.add_shard_wall(shard.wall_seconds)
            if tracer is not None:
                tracer.adopt(shard.trace_spans)

        stage_fetcher = FetchBackend(fetcher, tracer=tracer)
        overrides = at_overrides or {}
        for outcome in outcomes:
            stage_fetcher.seed(
                outcome.record.url,
                overrides.get(outcome.record.url, at),
                outcome.probe.result,
            )
        return StageResult(
            outcomes=outcomes,
            fetcher=stage_fetcher,
            cdx=CdxBackend(cdx, retry_policy=retry_policy, tracer=tracer),
            shards=len(spans),
        )


def _shard_spans(n_records: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous, near-equal (start, stop) spans covering the list.

    Contiguity matters: sampled records keep collection order, so links
    from one directory tend to sit near each other — sharding them
    together maximises each shard's cache locality.
    """
    shards = min(max(shards, 1), max(n_records, 1))
    base, extra = divmod(n_records, shards)
    spans: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        if stop > start:
            spans.append((start, stop))
        start = stop
    return spans
