"""Sharded, cached execution of the measurement study.

The paper's pipeline is independent per sampled link and enormously
repetitive in its archive-API traffic. This package supplies the three
pieces that run the per-link stage without changing a single measured
number:

- :class:`StudyExecutor` — cuts the record list into contiguous spans,
  runs each through one shard function in the calling process, and
  merges the results in record order;
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
span; shards buffer spans and registries that the executor grafts
back on merge. All of it is opt-in and inert — traced and untraced
runs produce byte-identical reports.
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
