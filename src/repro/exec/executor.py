"""Sharded execution of the study's per-record stages.

:class:`StudyExecutor` splits the record list into contiguous spans
and runs the per-record stage (§3 probe, §4.1 census, §4.2 redirect
validation, §3 post-marking check) over each with
:func:`~repro.exec.worker.run_shard` — directly in-process when there
is one worker, otherwise in a
:class:`concurrent.futures.ProcessPoolExecutor`. Either way every
shard builds its own caches and reports back the same
:class:`~repro.exec.worker.ShardResult`, which the parent folds one
way. Shard outputs are merged back in record order, so a seeded study
run produces a byte-identical report whichever way it executed: the
stage is a pure function of each record, and everything
order-sensitive (the soft-404 detector's RNG stream, the §5
aggregations) stays in the parent process.

The parent also receives a fetch memo pre-seeded with every probe
result, so follow-up phases (soft-404 re-fetches) hit the memo instead
of the network. A worker process that dies mid-shard raises
:class:`~repro.errors.ShardWorkerError` instead of hanging the run.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from ..archive.cdx import CdxApi
from ..backends.stacks import CdxBackend, FetchBackend
from ..clock import SimTime
from ..dataset.records import LinkRecord
from ..errors import ShardWorkerError
from ..net.fetch import Fetcher
from ..obs.trace import Tracer
from ..retry import RetryPolicy
from .stats import StudyStats
from .worker import (
    RecordOutcome,
    ShardResult,
    WorkerContext,
    run_shard,
    set_context,
)


@dataclass
class StageResult:
    """Merged output of the sharded stage.

    Attributes:
        outcomes: one :class:`RecordOutcome` per record, in input order.
        fetcher: parent-side memoizing fetch stack, pre-seeded with
            every probe result — later phases should fetch through it.
        cdx: parent-side memoizing CDX stack for the later phases.
        shards: how many shards actually ran.
    """

    outcomes: list[RecordOutcome]
    fetcher: FetchBackend
    cdx: CdxBackend
    shards: int = 1


def _default_workers() -> int:
    return max(os.cpu_count() or 1, 1)


@dataclass
class StudyExecutor:
    """Runs the per-record stage, sharded across worker processes.

    Args:
        workers: worker process count; ``None`` means one per CPU, and
            ``1`` runs the single shard in-process (no worker
            processes at all).
    """

    workers: int | None = None

    @property
    def resolved_workers(self) -> int:
        """The concrete worker count this executor will use."""
        return self.workers if self.workers else _default_workers()

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
        owns the caching, and ``retry_policy`` arms every memo stack it
        builds (``None`` never retries). Each shard's metrics registry,
        wall time and trace spans are folded into ``stats`` /
        ``tracer`` immediately; the returned parent-side caches carry
        their own counters (and emit into ``tracer``) for the phases
        that follow.

        ``at_overrides`` gives individual records their own probe
        instants (URL-keyed; everything else probes at ``at``), and
        ``bound_archive`` freezes each record's CDX horizon at its
        probe instant — the live pipeline's posture, where records
        carry different staleness and the archive keeps growing.

        Raises:
            ShardWorkerError: a worker process died before its shards
                came back.
        """
        workers = min(self.resolved_workers, max(len(records), 1))
        context = WorkerContext(
            records=records,
            fetcher=fetcher,
            cdx=cdx,
            at=at,
            retry_policy=retry_policy,
            trace=tracer is not None,
            at_overrides=at_overrides,
            bound_archive=bound_archive,
        )
        if workers <= 1:
            shards = [run_shard((0, len(records)), context)]
        else:
            shards = _run_pool(
                context, _shard_spans(len(records), workers), workers
            )

        outcomes: list[RecordOutcome] = []
        for shard in shards:
            outcomes.extend(shard.outcomes)
            if stats is not None:
                stats.registry.merge(shard.metrics)
                stats.add_shard_wall(shard.wall_seconds)
            if tracer is not None:
                tracer.adopt(shard.trace_spans)

        parent_fetcher = FetchBackend(
            fetcher, retry_policy=retry_policy, tracer=tracer
        )
        overrides = at_overrides or {}
        for outcome in outcomes:
            parent_fetcher.seed(
                outcome.record.url,
                overrides.get(outcome.record.url, at),
                outcome.probe.result,
            )
        return StageResult(
            outcomes=outcomes,
            fetcher=parent_fetcher,
            cdx=CdxBackend(cdx, retry_policy=retry_policy, tracer=tracer),
            shards=len(shards),
        )


def _run_pool(
    context: WorkerContext, spans: list[tuple[int, int]], workers: int
) -> list[ShardResult]:
    """Run every span in a process pool; results come back in span order.

    Workers fork where the platform offers it, so they inherit the
    world instead of unpickling it; elsewhere the initializer ships
    the context once per worker.
    """
    try:
        mp_context = multiprocessing.get_context("fork")
    except ValueError:  # no fork on this platform
        mp_context = multiprocessing.get_context()
    results: list[ShardResult] = []
    lost: list[tuple[int, int]] = []
    broken: BrokenProcessPool | None = None
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=mp_context,
        initializer=set_context,
        initargs=(context,),
    ) as pool:
        futures = [pool.submit(run_shard, span) for span in spans]
        for span, future in zip(spans, futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as exc:
                lost.append(span)
                broken = exc
    if lost:
        raise ShardWorkerError(lost) from broken
    return results


def _shard_spans(n_records: int, shards: int) -> list[tuple[int, int]]:
    """Contiguous, near-equal (start, stop) spans covering the list.

    Contiguity matters: sampled records keep collection order, so links
    from one directory tend to sit near each other — sharding them
    together maximises each worker's cache locality.
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
