"""Tests for repro.exec: memoizing backend stacks and the sharded executor.

The memo stacks must be *exact* — byte-identical answers to the
unwrapped backends — and the executor must produce the same
:class:`StudyReport` at any shard count. Both properties are what the
rest of the suite (and the paper numbers) silently rely on.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.study import Study, StudyReport
from repro.archive.cdx import CdxQuery, MatchType
from repro.backends import CdxBackend, FetchBackend
from repro.dataset.worldgen import WorldConfig, generate_world
from repro.exec import StudyExecutor
from repro.exec.executor import _shard_spans
from repro.faults import FaultPlan
from repro.obs.trace import Tracer
from repro.retry import DEFAULT_MASKING_POLICY


@pytest.fixture(scope="module")
def tiny_world():
    """A very small generated world for executor-level tests."""
    return generate_world(WorldConfig(n_links=260, target_sample=200, seed=7))


def _fresh_study(world) -> Study:
    # A new Study per run: the soft-404 detector consumes RNG streams,
    # so reusing one Study across runs would entangle the comparisons.
    return Study.from_world(world)


def assert_reports_identical(a: StudyReport, b: StudyReport) -> None:
    """Field-for-field equality, ignoring execution-shape artifacts.

    ``stats`` (wall times) is skipped outright; ``outcomes`` is
    compared with per-record provenance stripped — cache-hit splits
    differ across shard shapes, but every measurement field must not.
    """
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


# -- caching backends --------------------------------------------------------------


class TestCdxBackend:
    def _queries(self, study: Study) -> list[CdxQuery]:
        queries: list[CdxQuery] = []
        for record in study.records[:40]:
            for match in MatchType:
                for exclude in (False, True):
                    queries.append(
                        CdxQuery(
                            url=record.url,
                            match_type=match,
                            exclude_self=exclude,
                        )
                    )
            queries.append(
                CdxQuery(
                    url=record.url,
                    match_type=MatchType.DIRECTORY,
                    initial_status=200,
                )
            )
            queries.append(
                CdxQuery(url=record.url, match_type=MatchType.HOST, limit=3)
            )
        return queries

    def test_identical_to_unwrapped(self, tiny_world):
        raw = tiny_world.cdx
        cached = CdxBackend(raw)
        for query in self._queries(_fresh_study(tiny_world)):
            assert cached.query(query) == raw.query(query), query
            assert cached.archived_urls(query) == raw.archived_urls(
                query
            ), query

    def test_counters_advance_and_absorb_repeats(self, tiny_world):
        raw = tiny_world.cdx
        cached = CdxBackend(raw)
        queries = self._queries(_fresh_study(tiny_world))
        for query in queries:
            cached.query(query)
        assert cached.misses > 0
        # exclude_self variants share a normalized base entry, so the
        # very first pass already produces hits.
        assert cached.hits > 0
        hits_before = cached.hits
        backend_before = raw.query_count
        for query in queries:
            cached.query(query)
        assert cached.hits == hits_before + len(queries)
        assert raw.query_count == backend_before
        assert cached.query_count == 2 * len(queries)
        assert 0.0 < cached.hit_rate < 1.0


class TestFetchBackend:
    def test_identical_to_unwrapped(self, tiny_world):
        study = _fresh_study(tiny_world)
        raw = tiny_world.fetcher()
        cached = FetchBackend(tiny_world.fetcher())
        for record in study.records[:30]:
            assert cached.fetch(record.url, study.at) == raw.fetch(
                record.url, study.at
            )

    def test_repeat_fetches_hit_the_memo(self, tiny_world):
        study = _fresh_study(tiny_world)
        cached = FetchBackend(tiny_world.fetcher())
        urls = list(dict.fromkeys(r.url for r in study.records[:30]))
        first = [cached.fetch(url, study.at) for url in urls]
        assert cached.hits == 0 and cached.misses == len(urls)
        again = [cached.fetch(url, study.at) for url in urls]
        assert again == first
        assert cached.hits == len(urls)
        # A different instant is a different key, not a stale answer.
        later = study.at.plus_days(365)
        cached.fetch(urls[0], later)
        assert cached.misses == len(urls) + 1

    def test_seed_preempts_the_backend(self, tiny_world):
        study = _fresh_study(tiny_world)
        url = study.records[0].url
        probe = tiny_world.fetcher().fetch(url, study.at)
        cached = FetchBackend(tiny_world.fetcher())
        cached.seed(url, study.at, probe)
        assert cached.hits == 0 and cached.misses == 0
        assert cached.fetch(url, study.at) is probe
        assert cached.hits == 1 and cached.misses == 0


# -- sharding ----------------------------------------------------------------------


class TestShardSpans:
    @pytest.mark.parametrize(
        "n,shards",
        [(0, 4), (1, 4), (7, 3), (10, 1), (100, 16), (5, 5), (13, 4)],
    )
    def test_contiguous_cover(self, n, shards):
        spans = _shard_spans(n, shards)
        covered = [i for start, stop in spans for i in range(start, stop)]
        assert covered == list(range(n))
        sizes = [stop - start for start, stop in spans]
        if sizes:
            assert max(sizes) - min(sizes) <= 1
        assert len(spans) <= max(shards, 1)


# -- executor equivalence ----------------------------------------------------------


class TestExecutorEquivalence:
    def test_serial_matches_parallel(self, tiny_world):
        serial = _fresh_study(tiny_world).run()
        parallel = _fresh_study(tiny_world).run(
            executor=StudyExecutor(workers=3)
        )
        assert serial == parallel
        assert_reports_identical(serial, parallel)
        assert parallel.stats.shards == 3
        # The *logical* request volume is execution-shape-independent;
        # only who answered (memo vs backend) may shift.
        assert parallel.stats.fetches == serial.stats.fetches
        assert parallel.stats.cdx_queries == serial.stats.cdx_queries

    def test_one_record_study_reports_the_one_worker_that_ran(
        self, tiny_world
    ):
        # Four shards requested, one record: one shard runs, and the
        # stats, the summary and the trace say so.
        tracer = Tracer()
        report = Study.from_world(tiny_world, sample_size=1).run(
            StudyExecutor(workers=4), tracer=tracer
        )
        assert report.stats.shards == 1
        assert "executor: 1 shard(s)" in report.stats.summary()
        assert [span.name for span in tracer.spans].count("shard") == 1

    def test_stats_attached_and_populated(self, tiny_world):
        report = _fresh_study(tiny_world).run()
        stats = report.stats
        assert stats is not None
        assert set(stats.phase_seconds) >= {
            "probe+census",
            "soft404",
            "temporal",
            "spatial",
            "typos",
        }
        assert stats.total_seconds > 0.0
        assert stats.fetches > 0 and stats.cdx_queries > 0
        assert stats.backend_fetches <= stats.fetches
        assert stats.cdx_cache_hit_rate > 0.0
        assert "cache hit rate" in stats.summary()

    def test_serial_run_records_its_single_shard_wall(self, tiny_world):
        stats = _fresh_study(tiny_world).run().stats
        assert stats.shard_wall_count == 1
        assert stats.shard_wall_min == stats.shard_wall_max
        assert 0.0 < stats.shard_wall_total <= stats.total_seconds
        assert "shard wall" in stats.summary()

    def test_parallel_run_folds_per_shard_walls(self, tiny_world):
        stats = (
            _fresh_study(tiny_world)
            .run(executor=StudyExecutor(workers=3))
            .stats
        )
        # One wall reading per shard, measured by the shard itself, so
        # imbalance (one slow shard pinning the stage) is visible.
        assert stats.shard_wall_count == stats.shards == 3
        assert 0.0 < stats.shard_wall_min <= stats.shard_wall_max
        assert stats.shard_wall_total >= stats.shard_wall_max
        assert stats.registry.histogram("shard.wall_s").count == 3

    def test_stats_do_not_break_report_equality(self, tiny_world):
        a = _fresh_study(tiny_world).run()
        b = _fresh_study(tiny_world).run()
        assert a.stats is not b.stats
        assert a.stats.phase_seconds != {} and b.stats.phase_seconds != {}
        assert a == b  # wall-clock differences must not matter

    @pytest.mark.slow
    def test_parallel_equivalence_on_small_world(
        self, small_world, small_report
    ):
        parallel = Study.from_world(small_world).run(
            executor=StudyExecutor(workers=4)
        )
        assert parallel == small_report
        assert_reports_identical(small_report, parallel)


# -- retry counter aggregation -----------------------------------------------------


class TestRetryStatsAggregation:
    """StudyStats retry accounting must be exact across topologies."""

    def test_fault_free_runs_leave_retry_counters_zero(self, tiny_world):
        for executor in (None, StudyExecutor(workers=3)):
            stats = _fresh_study(tiny_world).run(executor).stats
            assert stats.fetch_retries == 0
            assert stats.fetch_giveups == 0
            assert stats.cdx_retries == 0
            assert stats.cdx_giveups == 0
            assert stats.backoff_ms == 0.0
            assert stats.total_retries == 0
            assert stats.retry_giveup_rate == 0.0

    def test_serial_masked_accounting_matches_injected_faults(self, tiny_world):
        # Every injected transient is masked by exactly one successful
        # retry bout, so the study totals must equal the injectors'
        # own fault counts — the end-to-end accounting cross-check.
        plan = FaultPlan.transient_everywhere(rate=0.2, seed=5)
        study = Study.from_world(
            tiny_world, faults=plan, retry_policy=DEFAULT_MASKING_POLICY
        )
        stats = study.run().stats
        dns = study.fetcher._dns.channel.injected
        connect = study.fetcher._origin.channel.injected
        assert stats.fetch_retries == dns + connect > 0
        assert stats.cdx_retries == study.cdx.injected > 0
        assert stats.total_giveups == 0
        assert stats.backoff_ms > 0.0
        assert "retries: fetch" in stats.summary()

    def test_parallel_folds_worker_shard_deltas(self, tiny_world):
        plan = FaultPlan.transient_everywhere(rate=0.2, seed=5)
        serial = Study.from_world(
            tiny_world, faults=plan, retry_policy=DEFAULT_MASKING_POLICY
        ).run()
        parallel = Study.from_world(
            tiny_world, faults=plan, retry_policy=DEFAULT_MASKING_POLICY
        ).run(StudyExecutor(workers=3))
        assert serial == parallel
        assert_reports_identical(serial, parallel)
        # Every shard goes through the same fault injectors, so each
        # key's faults are spent once whatever the shard count: the
        # totals match exactly once the executor folds every shard's
        # deltas in.
        assert parallel.stats.total_retries == serial.stats.total_retries > 0
        assert parallel.stats.total_giveups == 0
        assert parallel.stats.backoff_ms == serial.stats.backoff_ms > 0.0

    def test_study_policy_inherited_by_default_executor(self, tiny_world):
        plan = FaultPlan.transient_archive(rate=0.2, seed=5)
        study = Study.from_world(
            tiny_world, faults=plan, retry_policy=DEFAULT_MASKING_POLICY
        )
        report = study.run()  # no executor passed: Study must arm it
        assert report.stats.cdx_retries > 0
        assert report.stats.cdx_giveups == 0


# -- no process pool ---------------------------------------------------------------

#: Imports the study, executor, service and live packages, runs a
#: two-shard study, and prints which process-pool modules got loaded.
_POOL_FREE_SCRIPT = """
import sys
import repro.analysis.study, repro.exec, repro.live, repro.service
from repro.analysis.study import Study
from repro.dataset.worldgen import WorldConfig, generate_world
from repro.exec import StudyExecutor

world = generate_world(WorldConfig(n_links=120, target_sample=40, seed=7))
report = Study.from_world(world).run(StudyExecutor(workers=2))
assert report.stats.shards == 2
print(sorted(
    name for name in sys.modules
    if name.split(".")[0] in ("multiprocessing", "concurrent")
))
"""


def test_sharded_study_loads_no_process_pool(fresh_python):
    # Shards run in the calling process, so neither the import nor a
    # sharded run may pull in the process-pool machinery.
    loaded = fresh_python(_POOL_FREE_SCRIPT, block_numpy=False)
    assert loaded.strip() == "[]"
