"""Unit tests for repro.exec.stats: counters, rates, and formatting.

:class:`StudyStats` is pure arithmetic plus one string renderer, but
``repro study`` and the benchmarks print it verbatim, so its zero-safety
(:func:`_rate`) and its summary format are pinned down here.
"""

from __future__ import annotations

import pytest

from repro.exec.stats import (
    StudyStats,
    _rate,
    add_cdx_counts,
    add_fetch_counts,
    add_retry_counts,
)
from repro.obs import MetricsRegistry, Tracer, phase_totals


class TestRate:
    def test_plain_division(self):
        assert _rate(1, 2) == 0.5
        assert _rate(3, 4) == 0.75
        assert _rate(0, 5) == 0.0
        assert _rate(5, 5) == 1.0

    def test_empty_denominator_degrades_to_zero(self):
        assert _rate(0, 0) == 0.0
        assert _rate(7, 0) == 0.0  # never raises, whatever the numerator


class TestCounterIntake:
    def test_fetch_counts_accumulate(self):
        stats = StudyStats()
        add_fetch_counts(stats.registry, hits=3, misses=7)
        add_fetch_counts(stats.registry, hits=2, misses=0)
        assert stats.fetches == 12
        assert stats.fetch_cache_hits == 5
        assert stats.backend_fetches == 7
        assert stats.fetch_cache_hit_rate == pytest.approx(5 / 12)

    def test_cdx_counts_accumulate(self):
        stats = StudyStats()
        add_cdx_counts(stats.registry, hits=8, misses=2)
        assert stats.cdx_queries == 10
        assert stats.cdx_cache_hit_rate == pytest.approx(0.8)

    def test_retry_counts_accumulate_across_calls(self):
        stats = StudyStats()
        add_retry_counts(stats.registry, fetch_retries=2, backoff_ms=300.0)
        add_retry_counts(
            stats.registry,
            fetch_retries=1, fetch_giveups=1, cdx_retries=4, backoff_ms=50.0
        )
        add_retry_counts(stats.registry, cdx_giveups=2)
        assert stats.fetch_retries == 3
        assert stats.fetch_giveups == 1
        assert stats.cdx_retries == 4
        assert stats.cdx_giveups == 2
        assert stats.backoff_ms == pytest.approx(350.0)
        assert stats.total_retries == 7
        assert stats.total_giveups == 3
        assert stats.retry_giveup_rate == pytest.approx(3 / 10)

    def test_fresh_stats_report_zero_rates(self):
        stats = StudyStats()
        assert stats.fetch_cache_hit_rate == 0.0
        assert stats.cdx_cache_hit_rate == 0.0
        assert stats.retry_giveup_rate == 0.0
        assert stats.total_seconds == 0.0


class TestPhaseTiming:
    def test_phases_record_and_repeat_additively(self):
        stats = StudyStats()
        with stats.phase("probe"):
            pass
        first = stats.phase_seconds["probe"]
        assert first >= 0.0
        with stats.phase("probe"):
            pass
        assert stats.phase_seconds["probe"] >= first
        assert stats.total_seconds == pytest.approx(
            sum(stats.phase_seconds.values())
        )

    def test_phase_records_even_when_body_raises(self):
        stats = StudyStats()
        with pytest.raises(RuntimeError):
            with stats.phase("doomed"):
                raise RuntimeError("boom")
        assert "doomed" in stats.phase_seconds

    def test_phase_order_is_execution_order_not_alphabetical(self):
        stats = StudyStats()
        for name in ("temporal", "spatial", "alpha"):
            with stats.phase(name):
                pass
        assert list(stats.phase_seconds) == ["temporal", "spatial", "alpha"]

    def test_traced_phase_span_carries_the_exact_seconds(self):
        stats = StudyStats()
        tracer = Tracer()
        with stats.phase("probe+census", tracer=tracer):
            pass
        with stats.phase("probe+census", tracer=tracer):
            pass
        with stats.phase("soft404", tracer=tracer):
            pass
        # Not approx: the phase writes the same measured float to the
        # counter and the span, so a trace report reconstructs the
        # phase table identically.
        assert phase_totals(tracer.spans) == stats.phase_seconds
        assert all(s.kind == "phase" for s in tracer.spans)


class TestShardWall:
    def test_folds_min_max_total_and_count(self):
        stats = StudyStats()
        assert stats.shard_wall_count == 0
        for seconds in (2.0, 0.5, 1.0):
            stats.add_shard_wall(seconds)
        assert stats.shard_wall_count == 3
        assert stats.shard_wall_min == 0.5
        assert stats.shard_wall_max == 2.0
        assert stats.shard_wall_total == pytest.approx(3.5)

    def test_first_shard_sets_both_extrema(self):
        stats = StudyStats()
        stats.add_shard_wall(1.25)
        assert stats.shard_wall_min == stats.shard_wall_max == 1.25

    def test_summary_grows_a_shard_wall_clause_only_when_fed(self):
        stats = StudyStats()
        assert "shard wall" not in stats.summary()
        stats.add_shard_wall(0.25)
        stats.add_shard_wall(0.75)
        executor_line = stats.summary().splitlines()[0]
        assert "shard wall min/max/total 0.25/0.75/1.00s" in executor_line
        assert len(stats.summary().splitlines()) == 5  # format unchanged

    def test_worker_registry_merge_adds_counters_exactly(self):
        # Registries (record buckets, wall histograms) merge into the
        # stats' registry by plain addition.
        stats = StudyStats()
        stats.registry.counter("records.traced").inc(3)
        for n in (2, 5):
            worker = MetricsRegistry()
            worker.counter("records.traced").inc(n)
            worker.histogram("record.wall_s").observe(0.01)
            stats.registry.merge(worker)
        assert stats.registry.counter("records.traced").int_value == 10
        assert stats.registry.histogram("record.wall_s").count == 2

    def test_merge_prefixed_publishes_per_source_families(self):
        # The cluster tier's fold path: each replica registry merges
        # twice — once plain (the fleet rollup) and once under a
        # per-replica prefix — so the rollup is exactly the sum of the
        # prefixed families.
        fleet = MetricsRegistry()
        for rid, lookups in (("s0r0", 3), ("s0r1", 5)):
            replica = MetricsRegistry()
            replica.counter("service.index.lookups").inc(lookups)
            replica.gauge("service.queue.depth").set(lookups)
            replica.histogram("service.latency_ms", (1.0, 10.0)).observe(
                float(lookups)
            )
            fleet.merge(replica)
            fleet.merge(replica, f"service.replica.{rid}.")
        assert fleet.counter("service.index.lookups").int_value == 8
        assert (
            fleet.counter("service.replica.s0r0.service.index.lookups").value
            + fleet.counter("service.replica.s0r1.service.index.lookups").value
            == fleet.counter("service.index.lookups").value
        )
        # Gauges keep the incoming value per family; histograms add.
        assert fleet.gauge("service.replica.s0r1.service.queue.depth").value == 5
        assert fleet.histogram("service.latency_ms", (1.0, 10.0)).count == 2
        assert (
            fleet.histogram(
                "service.replica.s0r0.service.latency_ms", (1.0, 10.0)
            ).count
            == 1
        )

    def test_merge_prefixed_rejects_mismatched_histogram_bounds(self):
        fleet = MetricsRegistry()
        fleet.histogram("service.replica.r.lat", (1.0,)).observe(0.5)
        other = MetricsRegistry()
        other.histogram("lat", (2.0,)).observe(0.5)
        with pytest.raises(ValueError, match="bounds"):
            fleet.merge(other, "service.replica.r.")

    def test_merge_prefixed_empty_source_is_a_no_op(self):
        fleet = MetricsRegistry()
        fleet.counter("c").inc(2)
        before = fleet.snapshot()
        fleet.merge(MetricsRegistry(), "service.replica.r.")
        assert fleet.snapshot() == before

    def test_merge_prefixed_repeated_prefix_folds_additively(self):
        # Folding the same source twice under one prefix adds counters
        # and histograms (and re-takes gauges) — the same contract as
        # an unprefixed merge(), just namespaced.
        fleet = MetricsRegistry()
        source = MetricsRegistry()
        source.counter("lookups").inc(3)
        source.gauge("depth").set(7)
        source.histogram("lat", (1.0,)).observe(0.5)
        fleet.merge(source, "r.")
        fleet.merge(source, "r.")
        assert fleet.counter("r.lookups").int_value == 6
        assert fleet.gauge("r.depth").value == 7
        assert fleet.histogram("r.lat", (1.0,)).count == 2

    def test_merge_prefixed_nested_prefixes_compose(self):
        # A registry that already holds prefixed families can itself
        # be folded under an outer prefix (e.g. per-cell rollups of
        # per-replica families); names concatenate, values still add.
        replica = MetricsRegistry()
        replica.counter("lookups").inc(4)
        cell = MetricsRegistry()
        cell.merge(replica, "replica.s0r0.")
        region = MetricsRegistry()
        region.merge(cell, "cell.a.")
        assert (
            region.counter("cell.a.replica.s0r0.lookups").int_value == 4
        )


class TestSummaryFormatting:
    def test_quiet_run_renders_zeroes_not_errors(self):
        text = StudyStats().summary()
        assert "executor: 1 shard(s)" in text
        assert "phases: none recorded" in text
        assert "cache hit rate 0.0%" in text
        assert (
            "retries: fetch 0 (gave up 0), cdx 0 (gave up 0); "
            "virtual backoff 0 ms" in text
        )

    def test_busy_run_renders_every_counter(self):
        stats = StudyStats(shards=8)
        add_fetch_counts(stats.registry, hits=75, misses=25)
        add_cdx_counts(stats.registry, hits=40, misses=60)
        add_retry_counts(
            stats.registry,
            fetch_retries=12,
            fetch_giveups=1,
            cdx_retries=7,
            cdx_giveups=2,
            backoff_ms=1234.56,
        )
        text = stats.summary()
        assert "executor: 8 shard(s)" in text
        assert "fetches: 100 issued, 25 reached the network" in text
        assert "cache hit rate 75.0%" in text
        assert "cdx queries: 100 issued, 60 reached the API" in text
        assert "cache hit rate 40.0%" in text
        assert "retries: fetch 12 (gave up 1), cdx 7 (gave up 2)" in text
        assert "virtual backoff 1235 ms" in text

    def test_summary_is_line_per_topic(self):
        lines = StudyStats().summary().splitlines()
        assert len(lines) == 5
        topics = ("executor:", "phases:", "fetches:", "cdx queries:", "retries:")
        assert all(line.startswith(t) for line, t in zip(lines, topics))
