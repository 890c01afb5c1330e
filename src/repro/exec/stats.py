"""Execution accounting for the study pipeline.

:class:`StudyStats` is the single place where the cost of a study run
is recorded: wall time per pipeline phase, how many live-web fetches
and CDX queries the analyses asked for, how many of those the memo
caches absorbed, and how the work was sharded. Every run of
:meth:`Study.run <repro.analysis.study.Study.run>` attaches one to its
report, which is what makes the perf trajectory measurable from PR to
PR (``python -m repro study`` and the benchmark suite both print it).

``StudyStats`` is a thin *view* over a
:class:`~repro.obs.metrics.MetricsRegistry`: every counter it exposes
is a named registry instrument, every shard of the executor counts
straight into it, and ``python -m repro study --metrics-json`` can
dump the whole registry machine-readably.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from typing import TYPE_CHECKING

from ..numerics import BACKEND
from ..obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from ..backends.stacks import CdxBackend, FetchBackend
    from ..obs.trace import Tracer

#: Registry prefix under which per-phase wall seconds live.
_PHASE_PREFIX = "phase.seconds/"


def _rate(hits: int, total: int) -> float:
    """``hits / total``, degrading to 0.0 for an empty denominator.

    Every percentage :meth:`StudyStats.summary` prints flows through
    here, so zero-activity runs render "0.0%" instead of dividing by
    zero.
    """
    return hits / total if total else 0.0


# -- counter intake -----------------------------------------------------------


def add_fetch_counts(
    registry: MetricsRegistry, hits: int, misses: int
) -> None:
    """Fold one fetch cache's counters into ``registry``."""
    registry.counter("fetch.issued").inc(hits + misses)
    registry.counter("fetch.cache_hits").inc(hits)
    registry.counter("fetch.backend").inc(misses)


def add_cdx_counts(registry: MetricsRegistry, hits: int, misses: int) -> None:
    """Fold one CDX cache's counters into ``registry``."""
    registry.counter("cdx.issued").inc(hits + misses)
    registry.counter("cdx.cache_hits").inc(hits)
    registry.counter("cdx.backend").inc(misses)


def add_retry_counts(
    registry: MetricsRegistry,
    fetch_retries: int = 0,
    fetch_giveups: int = 0,
    cdx_retries: int = 0,
    cdx_giveups: int = 0,
    backoff_ms: float = 0.0,
) -> None:
    """Fold one client's (or one shard's) retry counters into ``registry``."""
    registry.counter("retry.fetch.retries").inc(fetch_retries)
    registry.counter("retry.fetch.giveups").inc(fetch_giveups)
    registry.counter("retry.cdx.retries").inc(cdx_retries)
    registry.counter("retry.cdx.giveups").inc(cdx_giveups)
    registry.counter("retry.backoff_ms").inc(backoff_ms)


@contextmanager
def backend_counts(
    registry: MetricsRegistry, fetcher: "FetchBackend", cdx: "CdxBackend"
):
    """Fold a fetch/CDX client pair's counters in when the block ends.

    The pair's memo hits and misses are folded whole, so the pair
    should be fresh at entry. Retry counters are folded as their delta
    across the block: the fetch client's are its raw fetcher's, which
    retries below the memo and may be shared with other blocks. Every
    shard and the later phases fold through here, so each
    retry anywhere is counted exactly once.
    """
    fetch_rc, cdx_rc = fetcher.retry_counters, cdx.retry_counters
    fetch_before, cdx_before = replace(fetch_rc), replace(cdx_rc)
    yield
    add_fetch_counts(registry, fetcher.hits, fetcher.misses)
    add_cdx_counts(registry, cdx.hits, cdx.misses)
    add_retry_counts(
        registry,
        fetch_retries=fetch_rc.retries - fetch_before.retries,
        fetch_giveups=fetch_rc.giveups - fetch_before.giveups,
        cdx_retries=cdx_rc.retries - cdx_before.retries,
        cdx_giveups=cdx_rc.giveups - cdx_before.giveups,
        backoff_ms=fetch_rc.backoff_ms - fetch_before.backoff_ms
        + (cdx_rc.backoff_ms - cdx_before.backoff_ms),
    )


class StudyStats:
    """Cost accounting for one study run, viewed over a metrics registry.

    Attributes:
        registry: the backing :class:`~repro.obs.metrics.MetricsRegistry`
            (every shard of the executor counts straight into it).
        shards: number of record shards the stage was split into.
        phase_seconds: wall time per pipeline phase, in execution order.
        fetches: live-web ``fetch()`` calls the analyses issued.
        backend_fetches: fetches that actually hit the simulated
            network (``fetches - fetch_cache_hits``).
        fetch_cache_hits: fetches answered from the ``(url, at)`` memo.
        cdx_queries: CDX queries the analyses issued.
        backend_cdx_queries: queries that reached the CDX API proper.
        cdx_cache_hits: queries answered from the query memo.
        fetch_retries / fetch_giveups: live-web transient failures
            retried / abandoned (zero unless a retry policy is set and
            transients actually occur).
        cdx_retries / cdx_giveups: the same for archive queries.
        backoff_ms: total *virtual* backoff delay across all clients —
            what the run would have spent sleeping on a wall clock.
    """

    def __init__(
        self, shards: int = 1, registry: MetricsRegistry | None = None
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.shards = shards

    # -- executor topology (gauge) -----------------------------------------------

    @property
    def shards(self) -> int:
        return int(self.registry.gauge("executor.shards").value)

    @shards.setter
    def shards(self, value: int) -> None:
        self.registry.gauge("executor.shards").set(value)

    # -- phase timing ------------------------------------------------------------

    @property
    def phase_seconds(self) -> dict[str, float]:
        """Wall time per pipeline phase, in first-recorded order."""
        return {
            name[len(_PHASE_PREFIX):]: value
            for name, value in self.registry.counters(
                _PHASE_PREFIX, sort=False
            ).items()
        }

    @contextmanager
    def phase(self, name: str, tracer: "Tracer | None" = None):
        """Time one pipeline phase (additive on repeated names).

        With a ``tracer``, the elapsed block is also recorded as a
        ``kind="phase"`` span carrying *exactly* the seconds added to
        :attr:`phase_seconds` — which is what lets a trace report
        reconstruct the phase table from the JSONL alone.
        """
        span = None
        start = time.perf_counter()
        try:
            with (
                tracer.span(name, kind="phase")
                if tracer is not None
                else nullcontext()
            ) as span:
                yield
        finally:
            elapsed = time.perf_counter() - start
            self.registry.counter(f"{_PHASE_PREFIX}{name}").inc(elapsed)
            if span is not None:
                span.duration_s = elapsed

    def add_shard_wall(self, seconds: float) -> None:
        """Record one shard's wall time, folding min/max/total.

        The executor times each shard, so imbalance — one slow shard
        pinning the stage — is visible in the summary and the metrics
        dump.
        """
        count = self.registry.counter("shard.wall.count")
        minimum = self.registry.gauge("shard.wall.min_s")
        maximum = self.registry.gauge("shard.wall.max_s")
        if count.int_value == 0:
            minimum.set(seconds)
            maximum.set(seconds)
        else:
            minimum.set(min(minimum.value, seconds))
            maximum.set(max(maximum.value, seconds))
        count.inc()
        self.registry.counter("shard.wall.total_s").inc(seconds)
        self.registry.histogram("shard.wall_s").observe(seconds)

    # -- counter views -----------------------------------------------------------

    def _count(self, name: str) -> int:
        return self.registry.counter(name).int_value

    @property
    def fetches(self) -> int:
        return self._count("fetch.issued")

    @property
    def fetch_cache_hits(self) -> int:
        return self._count("fetch.cache_hits")

    @property
    def backend_fetches(self) -> int:
        return self._count("fetch.backend")

    @property
    def cdx_queries(self) -> int:
        return self._count("cdx.issued")

    @property
    def cdx_cache_hits(self) -> int:
        return self._count("cdx.cache_hits")

    @property
    def backend_cdx_queries(self) -> int:
        return self._count("cdx.backend")

    @property
    def fetch_retries(self) -> int:
        return self._count("retry.fetch.retries")

    @property
    def fetch_giveups(self) -> int:
        return self._count("retry.fetch.giveups")

    @property
    def cdx_retries(self) -> int:
        return self._count("retry.cdx.retries")

    @property
    def cdx_giveups(self) -> int:
        return self._count("retry.cdx.giveups")

    @property
    def backoff_ms(self) -> float:
        return self.registry.counter("retry.backoff_ms").value

    @property
    def shard_wall_count(self) -> int:
        """How many shard wall times have been folded in."""
        return self._count("shard.wall.count")

    @property
    def shard_wall_total(self) -> float:
        """Sum of per-shard wall seconds (CPU-seconds of stage work)."""
        return self.registry.counter("shard.wall.total_s").value

    @property
    def shard_wall_min(self) -> float:
        """Fastest shard's wall seconds (0.0 before any shard ran)."""
        return self.registry.gauge("shard.wall.min_s").value

    @property
    def shard_wall_max(self) -> float:
        """Slowest shard's wall seconds (0.0 before any shard ran)."""
        return self.registry.gauge("shard.wall.max_s").value

    # -- derived rates -----------------------------------------------------------

    @property
    def fetch_cache_hit_rate(self) -> float:
        """Share of fetches served from the memo."""
        return _rate(self.fetch_cache_hits, self.fetches)

    @property
    def cdx_cache_hit_rate(self) -> float:
        """Share of CDX queries served from the memo."""
        return _rate(self.cdx_cache_hits, self.cdx_queries)

    @property
    def total_retries(self) -> int:
        """Retries across both backends."""
        return self.fetch_retries + self.cdx_retries

    @property
    def total_giveups(self) -> int:
        """Giveups across both backends."""
        return self.fetch_giveups + self.cdx_giveups

    @property
    def retry_giveup_rate(self) -> float:
        """Share of retry bouts that still ended in failure.

        A bout is one logical operation that needed retrying; retries
        plus giveups over-counts bouts, so this is a conservative
        upper bound used only for display.
        """
        return _rate(self.total_giveups, self.total_retries + self.total_giveups)

    @property
    def total_seconds(self) -> float:
        """Wall time summed over all recorded phases."""
        return sum(self.phase_seconds.values())

    # -- rendering ---------------------------------------------------------------

    def as_dict(self) -> dict:
        """Machine-readable dump: topology, phases, and the registry."""
        return {
            "shards": self.shards,
            "analysis_backend": BACKEND,
            "total_seconds": self.total_seconds,
            "phase_seconds": self.phase_seconds,
            "registry": self.registry.snapshot(),
        }

    def summary(self) -> str:
        """Multi-line digest for logs, ``repro study``, and benchmarks."""
        phases = "; ".join(
            f"{name} {seconds:.2f}s"
            for name, seconds in self.phase_seconds.items()
        )
        executor_line = (
            f"executor: {self.shards} shard(s), "
            f"{self.total_seconds:.2f}s total, "
            f"analysis backend {BACKEND}"
        )
        if self.shard_wall_count:
            executor_line += (
                f", shard wall min/max/total "
                f"{self.shard_wall_min:.2f}/{self.shard_wall_max:.2f}/"
                f"{self.shard_wall_total:.2f}s"
            )
        return "\n".join(
            [
                executor_line,
                f"phases: {phases or 'none recorded'}",
                (
                    f"fetches: {self.fetches} issued, "
                    f"{self.backend_fetches} reached the network "
                    f"(cache hit rate {self.fetch_cache_hit_rate:.1%})"
                ),
                (
                    f"cdx queries: {self.cdx_queries} issued, "
                    f"{self.backend_cdx_queries} reached the API "
                    f"(cache hit rate {self.cdx_cache_hit_rate:.1%})"
                ),
                (
                    f"retries: fetch {self.fetch_retries} "
                    f"(gave up {self.fetch_giveups}), "
                    f"cdx {self.cdx_retries} (gave up {self.cdx_giveups}); "
                    f"virtual backoff {self.backoff_ms:.0f} ms"
                ),
            ]
        )

    def __repr__(self) -> str:
        return (
            f"StudyStats(shards={self.shards}, "
            f"fetches={self.fetches}, cdx_queries={self.cdx_queries}, "
            f"total_seconds={self.total_seconds:.3f})"
        )
