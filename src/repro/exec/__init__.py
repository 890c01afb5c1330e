"""Sharded, cached execution of the measurement study.

The paper's pipeline is embarrassingly parallel over its sampled links
and enormously repetitive in its archive-API traffic. This package
supplies the three pieces that turn the serial pipeline into a
production-shaped one without changing a single measured number:

- :class:`StudyExecutor` — cuts the record list into spans and runs
  each through one shard function, in-process with one worker or in a
  process pool otherwise, then merges results in record order; a
  worker that dies raises :class:`~repro.errors.ShardWorkerError`;
- the memoizing backend stacks it builds per shard —
  :class:`~repro.backends.stacks.FetchBackend` /
  :class:`~repro.backends.stacks.CdxBackend`, exact memo caches over
  the two backends with hit/miss accounting (see
  :mod:`repro.backends`);
- :class:`StudyStats` — per-phase wall time plus fetch/query/cache
  counters, attached to every study report; a thin view over a
  :class:`~repro.obs.metrics.MetricsRegistry`, so every shard counts
  into a registry of its own and the executor folds it with one merge.

Observability threads through the same seams (see :mod:`repro.obs`):
pass ``tracer=`` to :meth:`StudyExecutor.execute` (or to
``Study.run``) and every shard, record, and backend call records a
span; worker shards buffer spans and registries that the executor
grafts back on merge. All of it is opt-in and inert — traced and
untraced runs produce byte-identical reports.
"""

from .executor import StageResult, StudyExecutor
from .stats import StudyStats
from .worker import (
    MAX_REDIRECT_COPIES_PER_LINK,
    RecordOutcome,
    run_record_stage,
)

__all__ = [
    "MAX_REDIRECT_COPIES_PER_LINK",
    "RecordOutcome",
    "StageResult",
    "StudyExecutor",
    "StudyStats",
    "run_record_stage",
]
