"""Sharded execution of the study's per-record stages.

:class:`StudyExecutor` splits the record list into contiguous spans
and runs the per-record stage (§3 probe, §4.1 census, §4.2 redirect
validation, §3 post-marking check) over each, one after another in the
calling process. Every shard builds its own caches and counts and
traces straight into the run's registry and tracer, and outcomes are
kept in record order, so a seeded study run produces a byte-identical
report whatever the shard count: the stage is a pure function of each
record, and everything order-sensitive (the soft-404 detector's RNG
stream, the §5 aggregations) runs after the stage.

The caller also receives a fetch memo pre-seeded with every probe
result, so follow-up phases (soft-404 re-fetches) hit the memo instead
of the network.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

from ..archive.cdx import CdxApi
from ..backends.stacks import CdxBackend, FetchBackend
from ..clock import SimTime
from ..dataset.records import LinkRecord
from ..net.fetch import Fetcher
from ..obs.trace import Tracer
from ..retry import RetryPolicy
from .stats import StudyStats, backend_counts
from .worker import RecordOutcome, run_record_stage


@dataclass
class StageResult:
    """Merged output of the sharded stage.

    Attributes:
        outcomes: one :class:`RecordOutcome` per record, in input order.
        fetcher: caller-side memoizing fetch stack, pre-seeded with
            every probe result — later phases should fetch through it.
        cdx: caller-side memoizing CDX stack for the later phases.
    """

    outcomes: list[RecordOutcome]
    fetcher: FetchBackend
    cdx: CdxBackend


@dataclass
class StudyExecutor:
    """Runs the per-record stage as contiguous in-process shards.

    Args:
        workers: how many shards to cut the records into, each with
            fresh memo caches (never more than there are records).
            Any count yields the same outcomes, as the
            shard-equivalence tests check; more shards only lose
            cache reuse. Must be an ``int`` of at least 1.
    """

    workers: int = 1

    def __post_init__(self) -> None:
        if (
            not isinstance(self.workers, int)
            or isinstance(self.workers, bool)
            or self.workers < 1
        ):
            raise ValueError(
                f"workers must be an int >= 1, got {self.workers!r}"
            )

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
        """Run the stage over ``records``, keeping record order.

        ``fetcher`` and ``cdx`` are the *raw* backends; the executor
        owns the caching, and ``retry_policy`` arms every CDX client it
        builds (``None`` never retries; the fetcher retries inside
        itself). Every shard counts into ``stats`` and traces into
        ``tracer`` as it runs, and ``stats.shards`` records how many
        ran; the returned caller-side caches carry their own counters
        (and emit into ``tracer``) for the phases that follow.

        ``at_overrides`` gives individual records their own probe
        instants (URL-keyed; everything else probes at ``at``), and
        ``bound_archive`` freezes each record's CDX horizon at its
        probe instant — the live pipeline's posture, where records
        carry different staleness and the archive keeps growing.
        """
        stats = stats if stats is not None else StudyStats()
        overrides = at_overrides or {}
        # No records (a live build with nothing dirty) still runs one
        # empty shard, so the stats report one shard and its wall.
        spans = _shard_spans(len(records), self.workers) or [(0, 0)]
        outcomes: list[RecordOutcome] = []
        for start, stop in spans:
            # Fresh caches per shard: a record's outcome must not depend
            # on which records share them (IncrementalStudy reruns only
            # the dirty records; the one-shard ≡ N-shard tests guard it).
            shard_fetcher = FetchBackend(fetcher, tracer=tracer)
            shard_cdx = CdxBackend(cdx, retry_policy=retry_policy, tracer=tracer)
            wall_start = time.perf_counter()
            with backend_counts(stats.registry, shard_fetcher, shard_cdx), (
                tracer.span("shard", kind="shard", start=start, stop=stop)
                if tracer is not None
                else nullcontext()
            ):
                outcomes.extend(
                    run_record_stage(
                        record,
                        shard_fetcher,
                        shard_cdx,
                        overrides.get(record.url, at),
                        tracer=tracer,
                        metrics=stats.registry,
                        bound_archive=bound_archive,
                    )
                    for record in records[start:stop]
                )
            stats.add_shard_wall(time.perf_counter() - wall_start)
        stats.shards = len(spans)

        stage_fetcher = FetchBackend(fetcher, tracer=tracer)
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
        )


def _shard_spans(n_records: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous, near-equal (start, stop) spans covering the list.

    Contiguity matters: sampled records keep collection order, so links
    from one directory tend to sit near each other — sharding them
    together maximises each shard's cache locality.
    """
    shards = min(shards, max(n_records, 1))
    base, extra = divmod(n_records, shards)
    spans: list[tuple[int, int]] = []
    start = 0
    for index in range(shards):
        stop = start + base + (1 if index < extra else 0)
        if stop > start:
            spans.append((start, stop))
        start = stop
    return spans
