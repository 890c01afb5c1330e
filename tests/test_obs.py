"""Tests for repro.obs: tracing, metrics, provenance, and trace views.

Two properties carry the whole layer and are pinned here end to end:

1. **Inertness** — tracing a study run must not change the study. A
   traced report equals an untraced one field for field.
2. **Fold exactness** — serial and parallel traced runs agree on every
   shape-independent aggregate metric (issued counts, record buckets)
   and on the byte-level report, even though their span trees differ
   in ids and interleaving.

The unit layers (span round-trips, histogram bucketing, registry
merges, trace views) are tested on synthetic data so failures localize.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.study import Study, StudyReport
from repro.archive.availability import AvailabilityApi, AvailabilityPolicy
from repro.clock import SimTime
from repro.dataset.worldgen import WorldConfig, generate_world
from repro.exec import StudyExecutor
from repro.exec.worker import run_record_stage
from repro.faults.plan import FaultPlan
from repro.iabot.archive_client import IABotArchiveClient
from repro.net.fetch import Fetcher
from repro.retry import DEFAULT_MASKING_POLICY
from repro.obs import (
    Counter,
    Histogram,
    MetricsRegistry,
    RecordProvenance,
    Span,
    Tracer,
    backend_snapshot,
    bucket_attribution,
    kind_counts,
    phase_latency_histograms,
    phase_totals,
    read_jsonl,
    top_records,
)


@pytest.fixture(scope="module")
def tiny_world():
    """A very small generated world for end-to-end tracing tests."""
    return generate_world(WorldConfig(n_links=260, target_sample=200, seed=7))


def _fresh_study(world) -> Study:
    return Study.from_world(world)


def assert_reports_identical(a: StudyReport, b: StudyReport) -> None:
    # stats (wall times) is skipped; outcomes compare with per-record
    # provenance stripped — provenance carries wall costs and span ids,
    # which vary across runs, but the measurement fields must not.
    for f in dataclasses.fields(StudyReport):
        if f.name == "stats":
            continue
        if f.name == "outcomes":
            assert _sans_provenance(a.outcomes) == _sans_provenance(
                b.outcomes
            ), f.name
            continue
        assert getattr(a, f.name) == getattr(b, f.name), f.name


def _sans_provenance(outcomes):
    if outcomes is None:
        return None
    return tuple(
        dataclasses.replace(outcome, provenance=None) for outcome in outcomes
    )


# -- spans and the tracer ----------------------------------------------------------


class TestTracer:
    def test_nesting_sets_parentage(self):
        tracer = Tracer()
        with tracer.span("outer", kind="phase") as outer:
            assert tracer.current_id == outer.span_id
            with tracer.span("inner", kind="record") as inner:
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert tracer.current_id is None
        # Completion order: children land before their parents.
        assert [s.name for s in tracer.spans] == ["inner", "outer"]
        assert outer.duration_s >= inner.duration_s >= 0.0

    def test_sibling_spans_share_a_parent(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == b.parent_id == parent.span_id

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("study", kind="study") as study:
            with tracer.span(
                "record", kind="record", sim=SimTime(days=12.5), url="http://x/"
            ) as record:
                record.add_virtual_ms(40.0)
                record.set(bucket="404")
        path = tmp_path / "trace.jsonl"
        assert tracer.write_jsonl(path) == 2
        loaded = read_jsonl(path)
        assert [s.span_id for s in loaded] == [s.span_id for s in tracer.spans]
        rec = loaded[0]
        assert rec.name == "record"
        assert rec.parent_id == study.span_id
        assert rec.sim_days == 12.5
        assert rec.virtual_ms == 40.0
        assert rec.attrs == {"url": "http://x/", "bucket": "404"}
        assert rec.duration_s == pytest.approx(record.duration_s)
        # Appending a second tracer's spans accumulates, never truncates.
        other = Tracer()
        with other.span("extra"):
            pass
        other.write_jsonl(path)
        assert len(read_jsonl(path)) == 3


# -- metrics -----------------------------------------------------------------------


class TestMetrics:
    def test_counter_adds_and_exposes_int_view(self):
        counter = Counter("n")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        assert counter.int_value == 3

    def test_histogram_buckets_honor_inclusive_bounds(self):
        histogram = Histogram("h", bounds=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.001, 0.005, 0.1, 5.0):
            histogram.observe(value)
        # bucket i counts values <= bounds[i]; the last is overflow.
        assert histogram.counts == [2, 1, 1, 1]
        assert histogram.count == 5
        assert histogram.mean == pytest.approx(sum((0.0005, 0.001, 0.005, 0.1, 5.0)) / 5)

    def test_histogram_merge_is_bucketwise_exact(self):
        a = Histogram("h", bounds=(1.0, 2.0))
        b = Histogram("h", bounds=(1.0, 2.0))
        for v in (0.5, 1.5, 3.0):
            a.observe(v)
        for v in (0.1, 9.9):
            b.observe(v)
        a.merge(b)
        assert a.counts == [2, 1, 2]
        assert a.count == 5
        assert a.sum == pytest.approx(0.5 + 1.5 + 3.0 + 0.1 + 9.9)

    def test_histogram_merge_rejects_foreign_bounds(self):
        a = Histogram("h", bounds=(1.0,))
        b = Histogram("h", bounds=(2.0,))
        with pytest.raises(ValueError, match="bounds"):
            a.merge(b)

    def test_registry_merge_folds_every_instrument(self):
        parent, worker = MetricsRegistry(), MetricsRegistry()
        parent.counter("records").inc(10)
        worker.counter("records").inc(5)
        worker.counter("only.worker").inc(2)
        parent.gauge("workers").set(1)
        worker.gauge("workers").set(3)
        parent.histogram("wall", bounds=(1.0,)).observe(0.5)
        worker.histogram("wall", bounds=(1.0,)).observe(2.0)
        parent.merge(worker)
        assert parent.counter("records").value == 15
        assert parent.counter("only.worker").value == 2
        assert parent.gauge("workers").value == 3  # incoming wins
        assert parent.histogram("wall").counts == [1, 1]

    def test_counters_view_filters_and_orders(self):
        registry = MetricsRegistry()
        registry.counter("phase.seconds/zulu").inc(1.0)
        registry.counter("phase.seconds/alpha").inc(2.0)
        registry.counter("other").inc(9.0)
        assert list(registry.counters("phase.seconds/", sort=False)) == [
            "phase.seconds/zulu",
            "phase.seconds/alpha",
        ]
        assert list(registry.counters("phase.seconds/")) == [
            "phase.seconds/alpha",
            "phase.seconds/zulu",
        ]

    def test_snapshot_is_json_plain(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(7)
        registry.histogram("h", bounds=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 2.0}
        assert snap["gauges"] == {"g": 7.0}
        assert snap["histograms"]["h"] == {
            "bounds": [1.0],
            "counts": [1, 0],
            "count": 1,
            "sum": 0.5,
        }


# -- provenance --------------------------------------------------------------------


class _FakeBackend:
    def __init__(self, fetch_count=0, misses=None, query_count=0):
        self.fetch_count = fetch_count
        self.query_count = query_count
        if misses is not None:
            self.misses = misses


class TestProvenance:
    def test_snapshot_reads_counters_duck_typed(self):
        snap = backend_snapshot(
            _FakeBackend(fetch_count=10, misses=4),
            _FakeBackend(query_count=6),
        )
        assert snap.fetches == 10
        assert snap.backend_fetches == 4  # misses refine "reached backend"
        assert snap.cdx_queries == 6
        assert snap.backend_cdx_queries == 6  # no memo: issued == backend

    def test_counterless_backends_read_as_zero(self):
        snap = backend_snapshot(object(), object())
        assert snap == backend_snapshot(object(), object())
        assert snap.fetches == 0 and snap.cdx_queries == 0

    def test_from_deltas_subtracts(self):
        before = backend_snapshot(
            _FakeBackend(fetch_count=10, misses=4), _FakeBackend(query_count=6)
        )
        after = backend_snapshot(
            _FakeBackend(fetch_count=13, misses=5), _FakeBackend(query_count=9)
        )
        prov = RecordProvenance.from_deltas(
            url="http://x/", bucket="404", before=before, after=after,
            span_id="7", wall_seconds=0.25,
        )
        assert prov.fetches == 3
        assert prov.backend_fetches == 1
        assert prov.cdx_queries == 3
        assert prov.span_id == "7"
        assert prov.wall_seconds == 0.25

    def test_record_retries_count_the_fetchers_own_retries(self):
        """The raw fetcher retries its DNS and connect legs below the
        memo, so its retries must reach each record's provenance and
        the record span's virtual backoff, within the study totals."""
        world = generate_world(WorldConfig(n_links=400, seed=11))
        study = Study.from_world(
            world,
            article_limit=30,
            faults=FaultPlan.transient_net(rate=0.3, seed=5),
            retry_policy=DEFAULT_MASKING_POLICY,
        )
        tracer = Tracer()
        report = study.run(executor=StudyExecutor(workers=1), tracer=tracer)
        provenance = [outcome.provenance for outcome in report.outcomes]
        retries = sum(prov.retries for prov in provenance)
        assert 0 < retries <= (
            report.stats.fetch_retries + report.stats.cdx_retries
        )
        backoff = sum(prov.backoff_ms for prov in provenance)
        assert 0 < backoff <= report.stats.backoff_ms
        records = [s for s in tracer.spans if s.kind == "record"]
        assert sum(s.virtual_ms for s in records) == backoff


# -- trace views -------------------------------------------------------------------


def _span(span_id, parent, name, kind, dur, **attrs):
    return Span(
        span_id=span_id, parent_id=parent, name=name, kind=kind,
        wall_start=0.0, duration_s=dur, attrs=attrs,
    )


class TestTraceViews:
    def _trace(self):
        return [
            _span("1", None, "probe+census", "phase", 2.0),
            _span("2", None, "probe+census", "phase", 1.0),
            _span("3", None, "soft404", "phase", 0.5),
            _span("4", "1", "shard", "shard", 1.9),
            _span("5", "4", "record", "record", 0.4,
                  url="http://a/", bucket="404", fetches=1, cdx_queries=2),
            _span("6", "4", "record", "record", 0.4,
                  url="http://b/", bucket="404", fetches=1, cdx_queries=3),
            _span("7", "4", "record", "record", 1.1,
                  url="http://c/", bucket="DNS Failure", fetches=2, retries=1),
            _span("8", "5", "fetch", "backend.fetch", 0.3, url="http://a/"),
            _span("9", None, "fetch", "backend.fetch", 0.2, url="http://z/"),
        ]

    def test_phase_totals_add_repeated_names(self):
        totals = phase_totals(self._trace())
        assert totals == {"probe+census": 3.0, "soft404": 0.5}

    def test_top_records_ranks_and_breaks_ties_on_url(self):
        top = top_records(self._trace(), n=2)
        assert [c.url for c in top] == ["http://c/", "http://a/"]
        assert top[0].retries == 1
        assert top[1].cdx_queries == 2
        assert len(top_records(self._trace(), n=100)) == 3

    def test_bucket_attribution_aggregates_costs(self):
        buckets = bucket_attribution(self._trace())
        assert list(buckets) == ["404", "DNS Failure"]  # by record count
        assert buckets["404"].records == 2
        assert buckets["404"].fetches == 2
        assert buckets["404"].cdx_queries == 5
        assert buckets["404"].wall_seconds == pytest.approx(0.8)
        assert buckets["DNS Failure"].retries == 1

    def test_latency_histograms_attribute_to_enclosing_phase(self):
        histograms = phase_latency_histograms(
            self._trace(), bounds=(0.5, 1.0)
        )
        # Records 5/6/7 and nested backend fetch 8 sit under phase 1;
        # orphan backend fetch 9 has no phase ancestor.
        assert set(histograms) == {"probe+census", "(no phase)"}
        assert histograms["probe+census"].count == 4
        assert histograms["probe+census"].counts == [3, 0, 1]
        assert histograms["(no phase)"].count == 1

    def test_kind_counts(self):
        assert kind_counts(self._trace()) == {
            "backend.fetch": 2, "phase": 3, "record": 3, "shard": 1,
        }


# -- backend span hooks ------------------------------------------------------------


class TestBackendTracing:
    def test_fetcher_emits_net_fetch_spans(self, tiny_world):
        tracer = Tracer()
        traced = Fetcher(tiny_world.web.dns, tiny_world.web, tracer=tracer)
        study = _fresh_study(tiny_world)
        result = traced.fetch(study.records[0].url, study.at)
        plain = tiny_world.fetcher().fetch(study.records[0].url, study.at)
        assert result == plain  # tracing never changes the fetch
        (span,) = tracer.spans
        assert span.kind == "net.fetch"
        assert span.attrs["outcome"] == result.outcome.value
        assert span.attrs["hops"] == len(result.chain)
        assert span.sim_days == study.at.days

    def test_iabot_client_emits_availability_spans(self, tiny_world):
        study = _fresh_study(tiny_world)
        posted = study.records[0].posted_at
        url = study.records[0].url
        api = AvailabilityApi(
            tiny_world.store, AvailabilityPolicy(seed="obs-test")
        )
        tracer = Tracer()
        traced = IABotArchiveClient(api, timeout_ms=None, tracer=tracer)
        plain = IABotArchiveClient(
            AvailabilityApi(
                tiny_world.store, AvailabilityPolicy(seed="obs-test")
            ),
            timeout_ms=None,
        )
        at = tiny_world.study_time
        assert traced.find_copy(url, posted, at) == plain.find_copy(
            url, posted, at
        )
        (span,) = tracer.spans
        assert span.kind == "availability"
        assert span.attrs["resolved"] in {"found", "none"}
        assert span.virtual_ms > 0.0  # the API's latency draw is booked


# -- the traced study, end to end --------------------------------------------------


def _deterministic_counters(stats) -> dict[str, float]:
    """The aggregate counters serial and parallel runs must agree on."""
    counters = stats.registry.counters()
    return {
        name: value
        for name, value in counters.items()
        if name.startswith(("fetch.issued", "cdx.issued", "records."))
    }


class TestTracedStudy:
    def test_tracing_is_inert(self, tiny_world):
        untraced = _fresh_study(tiny_world).run()
        traced = _fresh_study(tiny_world).run(tracer=Tracer())
        assert untraced == traced
        assert_reports_identical(untraced, traced)

    def test_serial_and_parallel_traces_agree_on_aggregates(self, tiny_world):
        serial_tracer, parallel_tracer = Tracer(), Tracer()
        serial = _fresh_study(tiny_world).run(tracer=serial_tracer)
        parallel = _fresh_study(tiny_world).run(
            executor=StudyExecutor(workers=3), tracer=parallel_tracer
        )
        assert serial == parallel
        assert_reports_identical(serial, parallel)
        assert _deterministic_counters(serial.stats) == _deterministic_counters(
            parallel.stats
        )
        # Same records traced on both sides, sharded or not.
        serial_records = [s for s in serial_tracer.spans if s.kind == "record"]
        parallel_records = [
            s for s in parallel_tracer.spans if s.kind == "record"
        ]
        assert len(serial_records) == len(parallel_records) == len(serial.probes)
        assert sorted(s.attrs["url"] for s in serial_records) == sorted(
            s.attrs["url"] for s in parallel_records
        )
        assert sorted(s.attrs["bucket"] for s in serial_records) == sorted(
            s.attrs["bucket"] for s in parallel_records
        )

    def test_span_tree_shape_and_integrity(self, tiny_world):
        tracer = Tracer()
        report = _fresh_study(tiny_world).run(
            executor=StudyExecutor(workers=3), tracer=tracer
        )
        kinds = kind_counts(tracer.spans)
        assert kinds["study"] == 1
        assert kinds["phase"] == 5
        assert kinds["shard"] == report.stats.shards == 3
        assert kinds["record"] == len(report.probes)
        # Every parent id resolves inside the trace: the shards traced
        # into the run's own tree, without dangling edges.
        ids = {s.span_id for s in tracer.spans}
        assert len(ids) == len(tracer.spans)
        for span in tracer.spans:
            assert span.parent_id is None or span.parent_id in ids
        (study_span,) = (s for s in tracer.spans if s.kind == "study")
        assert study_span.parent_id is None
        for span in tracer.spans:
            if span.kind == "phase":
                assert span.parent_id == study_span.span_id
        (stage_span,) = (s for s in tracer.spans if s.name == "probe+census")
        shard_ids = {s.span_id for s in tracer.spans if s.kind == "shard"}
        for span in tracer.spans:
            if span.kind == "shard":
                assert span.parent_id == stage_span.span_id
            elif span.kind == "record":
                assert span.parent_id in shard_ids

    def test_trace_phase_totals_match_stats_exactly(self, tiny_world):
        tracer = Tracer()
        report = _fresh_study(tiny_world).run(tracer=tracer)
        assert phase_totals(tracer.spans) == report.stats.phase_seconds

    def test_provenance_rides_every_outcome(self, tiny_world):
        study = _fresh_study(tiny_world)
        executor = StudyExecutor(workers=1)
        tracer = Tracer()
        stage = executor.execute(
            study.records, study.fetcher, study.cdx, study.at, tracer=tracer
        )
        for outcome in stage.outcomes:
            prov = outcome.provenance
            assert prov is not None
            assert prov.url == outcome.record.url
            assert prov.bucket == outcome.probe.result.outcome.value
            assert prov.fetches >= 1  # at least the live probe itself
            assert prov.cdx_queries >= 1  # at least the census
            assert prov.span_id is not None
        span_ids = {s.span_id for s in tracer.spans}
        assert all(
            o.provenance.span_id in span_ids for o in stage.outcomes
        )

    def test_untraced_stage_still_attaches_provenance(self, tiny_world):
        study = _fresh_study(tiny_world)
        outcome = run_record_stage(
            study.records[0], study.fetcher, study.cdx, study.at
        )
        assert outcome.provenance is not None
        assert outcome.provenance.span_id is None
        assert outcome.provenance.wall_seconds > 0.0

    def test_trace_report_script_renders_a_real_trace(self, tiny_world, tmp_path):
        import importlib.util
        import io
        import sys as _sys
        from pathlib import Path

        tracer = Tracer()
        _fresh_study(tiny_world).run(tracer=tracer)
        path = tmp_path / "trace.jsonl"
        tracer.write_jsonl(path)

        script = (
            Path(__file__).resolve().parent.parent
            / "scripts"
            / "trace_report.py"
        )
        spec = importlib.util.spec_from_file_location("trace_report", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        captured = io.StringIO()
        stdout, _sys.stdout = _sys.stdout, captured
        try:
            code = module.main([str(path), "--top", "3"])
        finally:
            _sys.stdout = stdout
        text = captured.getvalue()
        assert code == 0
        assert "spans by kind" in text
        assert "probe+census" in text
        assert "attribution by Figure-4 bucket" in text
        assert "most expensive URLs" in text
