"""Tests for repro.archive — snapshots, store, availability, CDX, crawlers."""

import gc
import importlib.util
import json
import pickle
import sys

import pytest

from repro.archive.availability import AvailabilityApi, AvailabilityPolicy
from repro.analysis import archived_soft404
from repro.analysis.copies import CopyCensus, census_link
from repro.analysis.redirects import RedirectValidator
from repro.analysis.study import Study
from repro.archive.cdx import AsOfCdx, CdxApi, CdxQuery, MatchType
from repro.archive.crawler import (
    ArchiveCrawler,
    BodySketcher,
    CrawlPolicy,
    OrganicCrawlPlanner,
    TriggeredArchiver,
    TriggerEra,
)
from repro.archive.snapshot import PendingSketch, Snapshot
from repro.archive.store import SnapshotStore
from repro.backends.stacks import CdxBackend
from repro.clock import SimTime
from repro.dataset.worldgen import WorldConfig, generate_world
from repro.errors import ArchiveTimeout
from repro.faults.inject import FaultyOrigin
from repro.faults.plan import FaultPlan
from repro.net.fetch import Fetcher, FetchResult
from repro.net.http import HttpRequest
from repro.net.status import Outcome
from repro.rng import Stream
from repro.textsim import shingles
from repro.textsim.content import PageCore
from repro.web.behaviors import (
    GeoPolicy,
    MissingPagePolicy,
    OutageWindow,
    SiteState,
)
from repro.web.page import Page
from repro.web.site import Site
from repro.web.world import LiveWeb

T2008 = SimTime.from_ymd(2008, 1, 1)
T2010 = SimTime.from_ymd(2010, 1, 1)
T2012 = SimTime.from_ymd(2012, 1, 1)
T2014 = SimTime.from_ymd(2014, 1, 1)
T2016 = SimTime.from_ymd(2016, 1, 1)
T2022 = SimTime.from_ymd(2022, 3, 15)

URL = "http://site.example.com/news/story.html"
SIBLING = "http://site.example.com/news/other.html"
ELSEWHERE = "http://site.example.com/sports/match.html"


def snap(url=URL, at=T2010, status=200, location=None, final=None, final_url=None):
    return Snapshot(
        url=url,
        captured_at=at,
        initial_status=status,
        redirect_location=location,
        final_status=final if final is not None else status,
        final_url=final_url or url,
        sketch=(1, 2, 3),
    )


class TestSnapshot:
    def test_redirect_requires_location(self):
        with pytest.raises(ValueError):
            Snapshot(url=URL, captured_at=T2010, initial_status=302)

    def test_initial_ok(self):
        assert snap(status=200).initial_ok
        assert not snap(status=404).initial_ok

    def test_initial_redirected(self):
        assert snap(status=302, location="http://x.com/").initial_redirected

    def test_failed(self):
        failed = Snapshot(url=URL, captured_at=T2010, initial_status=None)
        assert failed.failed
        assert failed.looks_erroneous_by_status

    def test_erroneous_by_status(self):
        assert snap(status=404).looks_erroneous_by_status
        assert snap(status=503).looks_erroneous_by_status
        assert not snap(status=200).looks_erroneous_by_status
        # 3xx landing on a 200 is not erroneous by status alone.
        good_redirect = snap(status=301, location="http://x.com/a", final=200)
        assert not good_redirect.looks_erroneous_by_status
        bad_redirect = snap(status=301, location="http://x.com/a", final=404)
        assert bad_redirect.looks_erroneous_by_status

    def test_describe(self):
        assert "302 ->" in snap(status=302, location="http://x.com/").describe()


class TestSnapshotStore:
    def _store(self) -> SnapshotStore:
        store = SnapshotStore()
        store.add(snap(at=T2012, status=404))
        store.add(snap(at=T2008, status=200))
        store.add(snap(at=T2016, status=200))
        store.add(snap(url=SIBLING, at=T2010, status=200))
        store.add(snap(url=ELSEWHERE, at=T2010, status=200))
        return store

    def test_snapshots_sorted_by_time(self):
        rows = self._store().snapshots(URL)
        times = [r.captured_at.days for r in rows]
        assert times == sorted(times)

    def test_counts(self):
        store = self._store()
        assert len(store) == 5
        assert store.url_count() == 3

    def test_first_snapshot(self):
        assert self._store().snapshots(URL)[0].captured_at == T2008

    def test_before_after_split(self):
        cdx = CdxApi(self._store())
        assert len(cdx.query(CdxQuery(url=URL, to_time=T2012))) == 1
        assert len(cdx.query(CdxQuery(url=URL, from_time=T2012))) == 2

    def test_closest_to(self):
        api = AvailabilityApi(self._store())
        chosen = api.lookup(URL, around=T2014).snapshot
        assert chosen.captured_at == T2016

    def test_closest_skips_copies_without_initial_200(self):
        # The 404 at 2012 is nearer 2010 than the 200 at 2008.
        api = AvailabilityApi(self._store())
        chosen = api.lookup(URL, around=T2010).snapshot
        assert chosen.captured_at == T2008

    def test_closest_no_match(self):
        api = AvailabilityApi(self._store())
        assert api.lookup("http://nowhere.com/x", around=T2010).snapshot is None

    def test_directory_index(self):
        urls = self._store().urls_in_directory("http://site.example.com/news/")
        assert set(urls) == {URL, SIBLING}

    def test_host_index(self):
        urls = self._store().urls_on_host("site.example.com")
        assert len(urls) == 3

    def test_domain_index(self):
        urls = self._store().urls_in_domain("example.com")
        assert len(urls) == 3

    def test_failed_capture_hidden_by_default(self):
        store = SnapshotStore()
        store.add(Snapshot(url=URL, captured_at=T2010, initial_status=None))
        assert store.snapshots(URL) == ()
        assert len(store.snapshots(URL, include_failed=True)) == 1


class _LocationlessRedirect:
    """A 302 hop that names no target, as only a broken server sends."""

    status = 302
    location = None
    is_redirect = False
    url = URL
    body = "moved but did not say where"


class _LocationlessFetcher:
    """A fetcher stand-in whose every answer is that 302."""

    def fetch(self, url, at):
        return FetchResult(
            url=str(url), outcome=Outcome.OTHER, chain=(_LocationlessRedirect(),)
        )


class TestSnapshotStoreColumns:
    """The store keeps per-URL day and observation columns and builds
    snapshots only when read; these pin what a read must see."""

    def test_out_of_order_add_lands_after_equal_days(self):
        store = SnapshotStore()
        store.add(snap(at=T2010, status=200))
        store.add(snap(at=T2012, status=200))
        store.add(snap(at=T2010, status=404))
        rows = store.snapshots(URL)
        assert [(row.captured_at, row.initial_status) for row in rows] == [
            (T2010, 200), (T2010, 404), (T2012, 200),
        ]

    def test_a_later_write_is_seen_and_other_urls_keep_their_rows(self):
        store = SnapshotStore()
        store.add(snap(at=T2010))
        store.add(snap(url=SIBLING, at=T2010))
        before = store.snapshots(URL)
        sibling = store.snapshots(SIBLING)
        store.add(snap(at=T2014, status=404))
        after = store.snapshots(URL)
        assert after[:1] == before and after[1].initial_status == 404
        assert CdxApi(store).query(
            CdxQuery(url=URL, from_time=T2014)
        ) == after[1:]
        assert store.snapshots(SIBLING) == sibling

    def test_failed_capture_added_beside_good_ones(self):
        store = SnapshotStore()
        store.add(Snapshot(url=URL, captured_at=T2008, initial_status=None))
        store.add(snap(at=T2010, status=200))
        assert store.snapshots(URL)[0].captured_at == T2010
        assert [row.failed for row in store.snapshots(URL)] == [False]
        every = store.snapshots(URL, include_failed=True)
        assert [row.failed for row in every] == [True, False]
        assert len(store) == 2

    def test_locationless_3xx_fails_at_capture_not_at_read(self):
        store = SnapshotStore()
        crawler = ArchiveCrawler(
            _LocationlessFetcher(), store, honor_robots=False
        )
        with pytest.raises(ValueError, match="needs redirect_location"):
            crawler.capture_at(URL, T2010.days)
        assert len(store) == 0 and store.snapshots(URL) == ()

    def test_capture_returns_what_the_store_then_serves(self, micro_web):
        store = SnapshotStore()
        crawler = ArchiveCrawler(micro_web.fetcher(), store)
        captured = [
            crawler.capture("http://news.example.com/moved/prompt.html", at)
            for at in (T2008, T2010, T2016)
        ]
        assert store.snapshots(
            "http://news.example.com/moved/prompt.html"
        ) == tuple(captured)
        assert captured[-1].initial_status == 301

    def test_pickled_store_keeps_sketches_pending(
        self, micro_web, minhash_calls
    ):
        store = SnapshotStore()
        crawler = ArchiveCrawler(micro_web.fetcher(), store)
        for at in (T2008, T2010, T2012):
            crawler.capture(ALIVE, at)
        # Every capture shares one pending sketch.
        key = store.snapshots(ALIVE)[0].__getstate__()[-1].key
        core = key.text()
        data = pickle.dumps(store)
        copy = pickle.loads(data)
        assert minhash_calls == []
        # The sketch travels as the page's identity, not as its text.
        assert core.encode() not in data
        assert len(copy) == 3 and copy.all_urls() == (ALIVE,)
        shared = {
            id(row.__getstate__()[-1]) for row in copy.snapshots(ALIVE)
        }
        assert len(shared) == 1
        # Comparing reads both stores' sketches: MinHash once for each.
        assert copy.snapshots(ALIVE) == store.snapshots(ALIVE)
        assert minhash_calls == [core, core]


@pytest.fixture
def snapshot_builds(monkeypatch):
    """A one-item list counting ``Snapshot`` constructions."""
    built = [0]
    original = Snapshot.__post_init__

    def counting(self):
        built[0] += 1
        original(self)

    monkeypatch.setattr(Snapshot, "__post_init__", counting)
    return built


def _snapshots_held_by(store: SnapshotStore) -> list[Snapshot]:
    """Snapshots reachable through the store's own containers."""
    found, seen, stack = [], set(), [store]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Snapshot):
            found.append(obj)
        elif isinstance(obj, (dict, list, tuple, set)) or (
            type(obj).__module__ == SnapshotStore.__module__
        ):
            stack.extend(gc.get_referents(obj))
    return found


class TestPayOnce:
    """The archive's reads answer from the store's columns and build a
    ``Snapshot`` only for a row they return."""

    @pytest.fixture
    def world(self):
        return generate_world(WorldConfig(n_links=60, target_sample=60, seed=5))

    def test_archived_urls_builds_no_snapshot(self, world, snapshot_builds):
        cdx = CdxApi(world.store)
        found = 0
        for url in world.store.all_urls():
            found += len(
                cdx.archived_urls(
                    CdxQuery(url=url, match_type=MatchType.HOST)
                )
            )
        assert found > 0 and snapshot_builds == [0]

    def test_lookup_builds_at_most_one(self, world, snapshot_builds):
        api = AvailabilityApi(world.store)
        for url in world.store.all_urls():
            before = snapshot_builds[0]
            found = api.lookup(url, around=T2010).snapshot is not None
            assert snapshot_builds[0] - before == found

    def test_query_builds_one_per_returned_row(self, world, snapshot_builds):
        """A query, its slices and filters build nothing; each row
        read builds its snapshot."""
        cdx = CdxApi(world.store)
        for url in world.store.all_urls():
            for request in (
                CdxQuery(url=url, match_type=MatchType.DIRECTORY),
                CdxQuery(url=url, initial_status=200, to_time=T2014, limit=3),
            ):
                before = snapshot_builds[0]
                rows = cdx.query(request)
                rows[1:].where(lambda url, observation: True)
                assert snapshot_builds[0] == before
                assert len(list(rows)) == len(rows)
                assert snapshot_builds[0] - before == len(rows)

    def test_study_builds_only_the_rows_it_hands_out(
        self, world, snapshot_builds, monkeypatch
    ):
        """``Study.run`` builds at most one ``Snapshot`` per row handed
        to a caller outside the archive: a copy it validates (§4.2), or
        a first / first post-marking copy it reads. Rows the validator
        and the boilerplate check read from their own sibling queries
        are theirs, and are counted apart."""
        handed, inside = [0], [0]

        def handing(prop):
            def read(census):
                snapshot = prop.fget(census)
                handed[0] += snapshot is not None
                return snapshot

            return property(read)

        for name in ("first_snapshot", "first_post_marking"):
            monkeypatch.setattr(
                CopyCensus, name, handing(getattr(CopyCensus, name))
            )

        def reading(function, hands):
            def call(*args):
                handed[0] += hands
                before = snapshot_builds[0]
                try:
                    return function(*args)
                finally:
                    inside[0] += snapshot_builds[0] - before

            return call

        monkeypatch.setattr(
            RedirectValidator,
            "validate",
            reading(RedirectValidator.validate, hands=1),
        )
        monkeypatch.setattr(
            archived_soft404,
            "_body_is_boilerplate",
            reading(archived_soft404._body_is_boilerplate, hands=0),
        )

        study = Study.from_world(world)
        before = snapshot_builds[0]
        report = study.run()
        built = snapshot_builds[0] - before - inside[0]
        rows = sum(
            len(census.pre_marking) + len(census.post_marking)
            for census in report.censuses
        )
        assert 0 < handed[0] < rows
        assert built <= handed[0]

    @pytest.mark.parametrize("bound_archive", [False, True])
    def test_census_answers_match_query_rows(self, world, bound_archive):
        """Every census answer equals the one read off ``cdx.query``'s
        snapshots, unclamped (the batch study) and clamped at each
        record's probe instant (``bound_archive``)."""
        study = Study.from_world(world)
        backend = CdxBackend(CdxApi(world.store))
        for record in study.records:
            for at in (record.marked_at, study.at):
                cdx = AsOfCdx(backend, at) if bound_archive else backend
                census = census_link(record, cdx)
                rows = tuple(cdx.query(CdxQuery(url=record.url)))
                marked = record.marked_at
                pre = [row for row in rows if row.captured_at < marked]
                post = [row for row in rows if not row.captured_at < marked]
                assert census.has_any_copy == bool(rows)
                assert census.has_pre_marking_200 == any(
                    row.initial_ok for row in pre
                )
                assert census.has_pre_marking_3xx == any(
                    row.initial_redirected for row in pre
                )
                assert census.first_snapshot == (rows[0] if rows else None)
                assert census.first_post_marking == (post[0] if post else None)
                assert tuple(census.pre_marking_3xx) == tuple(
                    row for row in pre if row.initial_redirected
                )

    def test_store_keeps_no_snapshots(self, world):
        store = world.store
        for url in store.all_urls():
            assert store.snapshots(url) == store.snapshots(url)
        assert store.snapshots(store.all_urls()[0])
        assert _snapshots_held_by(store) == []


class TestAvailabilityApi:
    def _api(self, tail_ms=2000.0) -> AvailabilityApi:
        store = SnapshotStore()
        store.add(snap(at=T2008, status=200))
        store.add(snap(at=T2012, status=404))
        store.add(snap(at=T2016, status=200))
        return AvailabilityApi(
            store, AvailabilityPolicy(tail_scale_ms=tail_ms, seed="test")
        )

    def test_patient_lookup_finds_closest_200(self):
        api = self._api()
        result = api.lookup(URL, around=T2014)
        assert result.snapshot is not None
        assert result.snapshot.captured_at == T2016  # closest initial-200

    def test_404_copies_never_returned(self):
        api = self._api()
        result = api.lookup(URL, around=T2012)
        assert result.snapshot.initial_status == 200

    def test_before_restriction(self):
        api = self._api()
        result = api.lookup(URL, around=T2014, before=T2010)
        assert result.snapshot.captured_at == T2008

    def test_timeout_raises(self):
        api = self._api()
        # Find a URL whose first-attempt latency exceeds 1 ms.
        with pytest.raises(ArchiveTimeout):
            for i in range(50):
                api.lookup(f"http://u{i}.com/x", around=T2014, timeout_ms=1.0)
        assert api.timeout_count >= 1

    def test_latency_deterministic_per_attempt(self):
        policy = AvailabilityPolicy(seed="p")
        assert policy.latency_ms("u", 0) == policy.latency_ms("u", 0)
        assert policy.latency_ms("u", 0) != policy.latency_ms("u", 1)

    def test_timeout_probability_math(self):
        policy = AvailabilityPolicy(base_ms=50.0, tail_scale_ms=2000.0)
        p = policy.timeout_probability(5000.0)
        assert 0.05 < p < 0.12
        assert policy.timeout_probability(10.0) == 1.0

    def test_empirical_timeout_rate_matches_model(self):
        policy = AvailabilityPolicy(seed="emp")
        timeouts = sum(
            1
            for i in range(4000)
            if policy.latency_ms(f"http://u{i}.com/", 0) > 5000.0
        )
        expected = policy.timeout_probability(5000.0)
        assert abs(timeouts / 4000 - expected) < 0.02

    def test_lookup_counter(self):
        api = self._api()
        api.lookup(URL, around=T2014)
        assert api.lookup_count == 1


class TestCdxApi:
    def _cdx(self) -> CdxApi:
        store = SnapshotStore()
        store.add(snap(at=T2008, status=200))
        store.add(snap(at=T2012, status=302, location="http://site.example.com/"))
        store.add(snap(url=SIBLING, at=T2010, status=200))
        store.add(snap(url=ELSEWHERE, at=T2014, status=404))
        return CdxApi(store)

    def test_exact_query(self):
        rows = self._cdx().query(CdxQuery(url=URL))
        assert len(rows) == 2

    def test_status_filter(self):
        rows = self._cdx().query(CdxQuery(url=URL, initial_status=200))
        assert len(rows) == 1

    def test_time_bounds(self):
        rows = self._cdx().query(
            CdxQuery(url=URL, from_time=T2010, to_time=T2014)
        )
        assert len(rows) == 1
        assert rows[0].initial_status == 302

    def test_directory_scope(self):
        rows = self._cdx().query(
            CdxQuery(url=URL, match_type=MatchType.DIRECTORY)
        )
        assert {row.url for row in rows} == {URL, SIBLING}

    def test_directory_exclude_self(self):
        rows = self._cdx().query(
            CdxQuery(url=URL, match_type=MatchType.DIRECTORY, exclude_self=True)
        )
        assert {row.url for row in rows} == {SIBLING}

    def test_host_scope(self):
        rows = self._cdx().query(CdxQuery(url=URL, match_type=MatchType.HOST))
        assert {row.url for row in rows} == {URL, SIBLING, ELSEWHERE}

    def test_domain_scope(self):
        rows = self._cdx().query(CdxQuery(url=URL, match_type=MatchType.DOMAIN))
        assert len({row.url for row in rows}) == 3

    def test_prefix_scope(self):
        rows = self._cdx().query(
            CdxQuery(
                url="http://site.example.com/news/",
                match_type=MatchType.PREFIX,
            )
        )
        assert {row.url for row in rows} == {URL, SIBLING}

    def test_prefix_matches_query_url_string_not_directory(self):
        """matchType=prefix matches the query URL itself, like the real
        CDX server — not the query URL's directory.

        Regression: PREFIX used to filter against ``parsed.directory``,
        returning every same-directory URL regardless of the query
        string, so a query for ``.../news/story`` wrongly matched
        ``.../news/other.html``.
        """
        cdx = self._cdx()
        rows = cdx.query(
            CdxQuery(
                url="http://site.example.com/news/story",
                match_type=MatchType.PREFIX,
            )
        )
        assert {row.url for row in rows} == {URL}  # story.html only

        # A URL that is itself a proper prefix of its siblings matches
        # itself, the sibling leaf, and subdirectory descendants.
        store = SnapshotStore()
        short = "http://site.example.com/news/story"
        longer = "http://site.example.com/news/story.html"
        nested = "http://site.example.com/news/story/part2.html"
        unrelated = "http://site.example.com/news/other.html"
        for url in (short, longer, nested, unrelated):
            store.add(snap(url=url, at=T2010, status=200))
        rows = CdxApi(store).query(
            CdxQuery(url=short, match_type=MatchType.PREFIX)
        )
        assert {row.url for row in rows} == {short, longer, nested}

        rows = CdxApi(store).query(
            CdxQuery(url=short, match_type=MatchType.PREFIX, exclude_self=True)
        )
        assert {row.url for row in rows} == {longer, nested}

    def test_archived_urls_collapse(self):
        urls = self._cdx().archived_urls(
            CdxQuery(
                url=URL,
                match_type=MatchType.HOST,
                initial_status=200,
                exclude_self=True,
            )
        )
        assert urls == (SIBLING,)

    def test_limit(self):
        rows = self._cdx().query(
            CdxQuery(url=URL, match_type=MatchType.HOST, limit=2)
        )
        assert len(rows) == 2

    def test_query_counter(self):
        cdx = self._cdx()
        cdx.query(CdxQuery(url=URL))
        cdx.archived_urls(CdxQuery(url=URL))
        assert cdx.query_count == 2


class TestCrawlPolicy:
    def test_plain_urls_crawlable(self):
        assert CrawlPolicy().crawlable("http://e.com/a/b.html")

    def test_few_params_ok(self):
        assert CrawlPolicy().crawlable("http://e.com/x.asp?a=1&b=2")

    def test_many_params_rejected(self):
        assert not CrawlPolicy().crawlable("http://e.com/x.asp?a=1&b=2&c=3&d=4")

    def test_long_query_rejected(self):
        assert not CrawlPolicy().crawlable(
            "http://e.com/x.asp?key=" + "v" * 60
        )

    def test_malformed_rejected(self):
        assert not CrawlPolicy().crawlable("not a url")


class TestArchiveCrawler:
    def test_capture_stores_snapshot(self, micro_web):
        store = SnapshotStore()
        crawler = ArchiveCrawler(micro_web.fetcher(), store)
        result = crawler.capture(
            "http://news.example.com/stays/alive.html", T2010
        )
        assert result is not None
        assert result.initial_status == 200
        assert store.snapshots("http://news.example.com/stays/alive.html")

    def test_capture_of_404(self, micro_web):
        store = SnapshotStore()
        crawler = ArchiveCrawler(micro_web.fetcher(), store)
        result = crawler.capture("http://news.example.com/gone/deleted.html", T2016)
        assert result.initial_status == 404

    def test_capture_of_redirect_records_initial_and_final(self, micro_web):
        store = SnapshotStore()
        crawler = ArchiveCrawler(micro_web.fetcher(), store)
        result = crawler.capture(
            "http://news.example.com/moved/prompt.html", T2016
        )
        assert result.initial_status == 301
        assert result.redirect_location == (
            "http://news.example.com/new/prompt-target.html"
        )
        assert result.final_status == 200

    def test_transport_failure_stores_nothing(self, micro_web):
        store = SnapshotStore()
        crawler = ArchiveCrawler(micro_web.fetcher(), store)
        result = crawler.capture("http://unregistered.example.org/x", T2010)
        assert result is None
        assert crawler.capture_failures == 1
        assert len(store) == 0

    def test_sketcher_caches_cores(self):
        sketcher = BodySketcher()
        sketcher.sketch("same core text here req1111")
        sketcher.sketch("same core text here req2222")
        assert sketcher.misses == 1


@pytest.fixture
def minhash_calls(monkeypatch):
    """The stems MinHash ran on, counted wherever ``repro`` bound it."""
    original = shingles.minhash_sketch
    calls: list[str] = []

    def counting(text, *args, **kwargs):
        calls.append(text)
        return original(text, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and (
            getattr(module, "minhash_sketch", None) is original
        ):
            monkeypatch.setattr(module, "minhash_sketch", counting)
    return calls


ALIVE = "http://news.example.com/stays/alive.html"


class TestLazySketch:
    """A capture records a pending sketch; MinHash runs when it is read."""

    STEM = "same core text here and a little more"

    def _snapshot(self, sketch):
        return Snapshot(
            url=URL, captured_at=T2010, initial_status=200,
            final_status=200, final_url=URL, sketch=sketch,
        )

    def test_pending_equals_hashes_and_prints_as_resolved(self):
        resolved = self._snapshot(shingles.minhash_sketch(self.STEM))
        assert self._snapshot(PendingSketch(self.STEM)) == resolved
        assert resolved == self._snapshot(PendingSketch(self.STEM))
        assert hash(self._snapshot(PendingSketch(self.STEM))) == hash(resolved)
        assert repr(self._snapshot(PendingSketch(self.STEM))) == repr(resolved)
        pending = self._snapshot(PendingSketch(self.STEM))
        assert type(pending.sketch) is tuple
        assert pending.sketch == resolved.sketch

    def test_pickle_round_trip_runs_no_minhash(self, micro_web, minhash_calls):
        crawler = ArchiveCrawler(micro_web.fetcher(), SnapshotStore())
        snapshot = crawler.capture(ALIVE, T2010)
        other = crawler.capture(
            "http://news.example.com/new/late-target.html", T2014
        )
        data = pickle.dumps(snapshot)
        copy = pickle.loads(data)
        assert minhash_calls == []
        # The pickle carries this snapshot's page identity, neither its
        # text nor the sketcher's memo.
        key = snapshot.__getstate__()[-1].key
        assert key.text().encode() not in data
        other_key = other.__getstate__()[-1].key
        assert other_key.path.encode() not in data
        assert copy.sketch == snapshot.sketch
        assert copy.sketch == shingles.minhash_sketch(minhash_calls[0])
        # A resolved sketch pickles as its tuple.
        calls = len(minhash_calls)
        again = pickle.loads(pickle.dumps(snapshot))
        assert type(again.__getstate__()[-1]) is tuple
        assert again == snapshot
        assert len(minhash_calls) == calls

    def test_one_stem_runs_minhash_once(self, micro_web, minhash_calls):
        # An unstamped origin: every capture fetches a body with its own
        # noise token, all of one stem.
        fetcher = Fetcher(
            micro_web.dns, FaultyOrigin(micro_web, FaultPlan(seed=3))
        )
        store = SnapshotStore()
        crawler = ArchiveCrawler(fetcher, store, honor_robots=False)
        captured = [
            crawler.capture(ALIVE, T2010.plus_days(3.0 * n)) for n in range(30)
        ]
        assert fetcher.fetch_count == 30
        assert crawler._sketcher.misses == 1
        stored = store.snapshots(ALIVE)
        assert len(stored) == 30 and minhash_calls == []
        assert len({snap.sketch for snap in (*captured, *stored)}) == 1
        assert len(minhash_calls) == 1

    def test_generate_world_runs_no_minhash(self, minhash_calls):
        world = generate_world(WorldConfig(n_links=60, target_sample=60, seed=5))
        assert world.crawler._sketcher.misses > 0
        assert minhash_calls == []
        first = world.store.snapshots(world.store.all_urls()[0])[0]
        assert len(first.sketch) > 0
        assert len(minhash_calls) == 1


class TestOrganicCrawlPlanner:
    def test_zero_rate_no_captures(self):
        planner = OrganicCrawlPlanner(horizon=T2022)
        assert planner.plan_days(T2010, 0.0, Stream(1)) == []

    def test_rate_controls_count(self):
        planner = OrganicCrawlPlanner(horizon=T2022)
        rng = Stream(2)
        counts = [len(planner.plan_days(T2010, 2.0, rng)) for _ in range(200)]
        mean = sum(counts) / len(counts)
        # ~12.2 years at 2/year.
        assert 20 < mean < 29

    def test_all_times_in_window(self):
        planner = OrganicCrawlPlanner(horizon=T2022)
        for days in planner.plan_days(T2010, 3.0, Stream(3)):
            assert T2010.days < days < T2022.days


class TestTriggeredArchiver:
    def test_no_capture_before_eras(self):
        eras = WorldConfig().trigger_eras()
        archiver = TriggeredArchiver(eras, Stream(4))
        assert archiver.capture_time_for(T2008) is None

    def test_covered_era_produces_delays(self):
        era = TriggerEra(
            start=T2010, end=T2022, coverage=1.0, delay_median_days=1.0
        )
        archiver = TriggeredArchiver((era,), Stream(5))
        times = [archiver.capture_time_for(T2014) for _ in range(50)]
        assert all(t is not None and t > T2014 for t in times)

    def test_coverage_fraction(self):
        era = TriggerEra(
            start=T2010, end=T2022, coverage=0.3, delay_median_days=1.0
        )
        archiver = TriggeredArchiver((era,), Stream(6))
        hits = sum(
            1 for _ in range(2000) if archiver.capture_time_for(T2014) is not None
        )
        assert 0.25 < hits / 2000 < 0.35

    def test_era_validation(self):
        with pytest.raises(ValueError):
            TriggerEra(start=T2010, end=T2008, coverage=0.5, delay_median_days=1.0)
        with pytest.raises(ValueError):
            TriggerEra(start=T2008, end=T2010, coverage=1.5, delay_median_days=1.0)


# -- a sketch keyed by page identity equals a sketch of the body's text ---------

BACKENDS = ["stdlib"] + (
    ["numpy"] if importlib.util.find_spec("numpy") is not None else []
)


def _stem(body: str) -> str:
    """The body minus its last token: the text a stem names."""
    cut = body.rfind(" ")
    return body if cut < 0 else body[:cut]


def _every_body_kind() -> dict[str, object]:
    """One single-hop response of each kind of body the web serves."""
    web = LiveWeb()

    def site(hostname, policy=MissingPagePolicy.HARD_404, **state):
        site = Site(
            hostname=hostname, seed=f"seed-{hostname}", created_at=T2008,
            missing_policy=policy, state=SiteState(**state),
        )
        site.add_page(Page(path_query="/p.html", created_at=T2008))
        web.add_site(site)

    site("a.example")
    site("soft.example", MissingPagePolicy.SOFT_404)
    site("home.example", MissingPagePolicy.REDIRECT_HOME)
    site("parked.example", parked_from=T2008)
    site("geo.example", geo=GeoPolicy.BLOCKED_403)
    site("down.example", outages=(OutageWindow(start=T2008, end=T2014),))
    requests = {
        "article": "http://a.example/p.html",
        "homepage": "http://a.example/",
        "error_404": "http://a.example/missing.html",
        "error_soft_200": "http://soft.example/missing.html",
        "parked": "http://parked.example/p.html",
        "login": "http://a.example/login",
        "robots": "http://a.example/robots.txt",
        "literal_403": "http://geo.example/p.html",
        "literal_503": "http://down.example/p.html",
        "empty_redirect": "http://home.example/missing.html",
    }
    return {
        kind: web.handle(
            f"site:{url.split('/')[2]}", HttpRequest.get(url), T2010
        )
        for kind, url in requests.items()
    }


BODY_KINDS = _every_body_kind()
#: The kinds whose body is a generated page, carried by identity.
GENERATED = (
    "article", "homepage", "error_404", "error_soft_200", "parked", "login",
)


class TestSketchIdentity:
    """``BodySketcher.pending`` keyed by identity ≡ keyed by stem text."""

    def test_every_kind_is_served(self):
        statuses = {kind: r.status for kind, r in BODY_KINDS.items()}
        assert statuses == {
            "article": 200, "homepage": 200, "error_404": 404,
            "error_soft_200": 200, "parked": 200, "login": 200,
            "robots": 200, "literal_403": 403, "literal_503": 503,
            "empty_redirect": 302,
        }
        for kind, response in BODY_KINDS.items():
            assert (type(response.content) is str) == (kind not in GENERATED)
        assert BODY_KINDS["empty_redirect"].body == ""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kind", sorted(BODY_KINDS))
    def test_identity_sketch_equals_text_sketch(
        self, kind, backend, monkeypatch
    ):
        if backend == "stdlib":
            # minhash_sketch takes its pure-Python path without numpy.
            monkeypatch.setattr(shingles, "np", None)
        response = BODY_KINDS[kind]
        pending = BodySketcher().pending(response.content)
        assert pending.resolve() == shingles.minhash_sketch(
            _stem(response.body)
        )

    def test_unresolved_pickle_carries_identity_only(self):
        for kind in GENERATED:
            pending = BodySketcher().pending(BODY_KINDS[kind].content)
            assert type(pending.key) is PageCore
            data = pickle.dumps(pending)
            assert pending.key.text().encode() not in data
            assert _stem(BODY_KINDS[kind].body).encode() not in data

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fresh_interpreter_resolves_the_same(
        self, backend, tmp_path, fresh_python
    ):
        kinds = sorted(BODY_KINDS)
        path = tmp_path / "pending.pickle"
        path.write_bytes(
            pickle.dumps(
                [BodySketcher().pending(BODY_KINDS[k].content) for k in kinds]
            )
        )
        script = (
            "import json, pickle, sys\n"
            "from repro.numerics import BACKEND\n"
            "pending = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            "print(json.dumps([BACKEND,"
            " [list(p.resolve()) for p in pending]]))\n"
        )
        name, sketches = json.loads(
            fresh_python(
                script, str(path), block_numpy=backend == "stdlib"
            )
        )
        assert name == backend
        assert sketches == [
            list(shingles.minhash_sketch(_stem(BODY_KINDS[k].body)))
            for k in kinds
        ]
