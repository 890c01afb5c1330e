"""Unit tests for the analysis modules against hand-built webs/archives."""

import pytest

from repro.analysis.archived_soft404 import archived_copy_erroneous
from repro.analysis.copies import CopyCensus, census_link
from repro.analysis.live_status import LiveProbe, classify_links, outcome_counts
from repro.analysis.redirects import RedirectValidator
from repro.analysis.soft404 import Soft404Detector
from repro.analysis.spatial import spatial_analysis
from repro.analysis.temporal import temporal_analysis
from repro.analysis.typos import find_typos
from repro.archive.cdx import CdxApi
from repro.archive.crawler import ArchiveCrawler
from repro.archive.snapshot import Snapshot
from repro.archive.store import SnapshotStore
from repro.clock import SimTime
from repro.dataset.records import LinkRecord
from repro.net.status import Outcome
from repro.rng import Stream
from repro.web.behaviors import MissingPagePolicy, SiteState
from repro.web.page import Page, PageFate
from repro.web.site import Site
from repro.web.world import LiveWeb

T2005 = SimTime.from_ymd(2005, 1, 1)
T2008 = SimTime.from_ymd(2008, 1, 1)
T2010 = SimTime.from_ymd(2010, 1, 1)
T2012 = SimTime.from_ymd(2012, 1, 1)
T2014 = SimTime.from_ymd(2014, 1, 1)
T2016 = SimTime.from_ymd(2016, 1, 1)
T2022 = SimTime.from_ymd(2022, 3, 15)


def record(url, posted=T2010, marked=T2016) -> LinkRecord:
    return LinkRecord(
        url=url,
        article_title="A",
        posted_at=posted,
        marked_at=marked,
        marked_by="InternetArchiveBot",
    )


def soft404_web() -> LiveWeb:
    """Sites with every missing-page behaviour plus a parked domain."""
    web = LiveWeb()
    for host, policy in (
        ("hard.example.com", MissingPagePolicy.HARD_404),
        ("soft.example.com", MissingPagePolicy.SOFT_404),
        ("home.example.com", MissingPagePolicy.REDIRECT_HOME),
        ("login.example.com", MissingPagePolicy.REDIRECT_LOGIN),
    ):
        site = Site(
            hostname=host, seed=host, created_at=T2005, missing_policy=policy
        )
        site.add_page(Page(path_query="/real/live.html", created_at=T2008))
        web.add_site(site)
    parked_original = Site(
        hostname="park.example.com",
        seed="park-orig",
        created_at=T2005,
        dns_dies_at=T2012,
    )
    web.add_site(parked_original)
    web.add_parked_successor(
        parked_original,
        Site(
            hostname="park.example.com",
            seed="park-squat",
            created_at=T2014,
            state=SiteState(parked_from=T2014),
        ),
    )
    return web


class TestLiveStatus:
    def test_outcomes(self, micro_web):
        records = [
            record("http://news.example.com/stays/alive.html"),
            record("http://news.example.com/gone/deleted.html"),
            record("http://unregistered.example.org/x"),
        ]
        probes = classify_links(records, micro_web.fetcher(), T2022)
        assert probes[0].outcome is Outcome.HTTP_200
        assert probes[1].outcome is Outcome.HTTP_404
        assert probes[2].outcome is Outcome.DNS_FAILURE

    def test_counts_cover_all_buckets(self, micro_web):
        probes = classify_links(
            [record("http://news.example.com/stays/alive.html")],
            micro_web.fetcher(),
            T2022,
        )
        counts = outcome_counts(probes)
        assert sum(counts.values()) == 1
        assert len(counts) == 5  # all Figure 4 buckets present

    def test_counts_tolerate_outcomes_outside_figure4(
        self, micro_web, monkeypatch
    ):
        """An outcome missing from FIGURE4_ORDER is counted, not a
        KeyError (regression: a probe from a future taxonomy used to
        crash the whole report)."""
        from repro.analysis import live_status

        probes = classify_links(
            [record("http://news.example.com/stays/alive.html")],
            micro_web.fetcher(),
            T2022,
        )
        reduced = tuple(
            o for o in live_status.FIGURE4_ORDER if o is not Outcome.HTTP_200
        )
        monkeypatch.setattr(live_status, "FIGURE4_ORDER", reduced)
        counts = outcome_counts(probes)
        assert counts[Outcome.HTTP_200] == 1
        assert sum(counts.values()) == 1
        # Presentation-ordered buckets still lead the dict.
        assert list(counts)[: len(reduced)] == list(reduced)


class TestSoft404Detector:
    def _detector(self, web):
        return Soft404Detector(web.fetcher(), Stream(99))

    def test_genuinely_alive_page(self):
        web = soft404_web()
        verdict = self._detector(web).check(
            "http://hard.example.com/real/live.html", T2022
        )
        assert verdict.genuinely_alive

    def test_soft404_detected_by_similarity(self):
        web = soft404_web()
        verdict = self._detector(web).check(
            "http://soft.example.com/real/gone.html", T2022
        )
        assert verdict.broken
        assert verdict.similarity is not None and verdict.similarity > 0.99

    def test_redirect_home_detected_by_same_target(self):
        web = soft404_web()
        verdict = self._detector(web).check(
            "http://home.example.com/real/gone.html", T2022
        )
        assert verdict.broken
        assert "same redirect target" in verdict.reason

    def test_parked_domain_detected(self):
        web = soft404_web()
        verdict = self._detector(web).check(
            "http://park.example.com/anything.html", T2022
        )
        assert verdict.broken

    def test_alive_on_soft404_site_not_flagged(self):
        web = soft404_web()
        verdict = self._detector(web).check(
            "http://soft.example.com/real/live.html", T2022
        )
        assert verdict.genuinely_alive

    def test_alive_behind_redirect_not_flagged(self, micro_web):
        # The fishman-style case: old URL 301s to the new page, which
        # serves real content — distinct from the random sibling's 404.
        verdict = Soft404Detector(micro_web.fetcher(), Stream(1)).check(
            "http://news.example.com/moved/late.html", T2022
        )
        assert verdict.genuinely_alive


class TestCopyCensus:
    def test_split_at_marking(self):
        store = SnapshotStore()
        url = "http://e.com/a/x.html"
        for at, status in ((T2010, 200), (T2014, 404), (SimTime.from_ymd(2018, 1, 1), 404)):
            store.add(
                Snapshot(url=url, captured_at=at, initial_status=status,
                         final_status=status, final_url=url)
            )
        census = census_link(record(url, marked=T2016), CdxApi(store))
        assert len(census.pre_marking) == 2
        assert len(census.post_marking) == 1
        assert census.has_pre_marking_200
        assert not census.has_pre_marking_3xx
        assert census.first_snapshot.captured_at == T2010

    def test_copies_after_marking_do_not_count_before_it(self):
        store = SnapshotStore()
        url = "http://e.com/a/z.html"
        after = SimTime.from_ymd(2018, 1, 1)
        store.add(
            Snapshot(url=url, captured_at=T2014, initial_status=404,
                     final_status=404, final_url=url)
        )
        store.add(
            Snapshot(url=url, captured_at=T2016, initial_status=301,
                     redirect_location="http://e.com/", final_status=200,
                     final_url="http://e.com/")
        )
        store.add(
            Snapshot(url=url, captured_at=after, initial_status=200,
                     final_status=200, final_url=url)
        )
        census = census_link(record(url, marked=T2016), CdxApi(store))
        assert census.has_any_copy
        assert not census.has_pre_marking_200
        assert not census.has_pre_marking_3xx
        assert census.pre_marking_3xx == ()
        assert census.first_post_marking.captured_at == T2016
        assert [row.captured_at for row in census.post_marking] == [T2016, after]

    def test_no_copies(self):
        census = census_link(record("http://e.com/a/y.html"), CdxApi(SnapshotStore()))
        assert not census.has_any_copy
        assert census.first_snapshot is None
        assert census.first_post_marking is None


class TestRedirectValidator:
    def _store_with_redirects(self, same_target: bool) -> SnapshotStore:
        store = SnapshotStore()
        target = "http://e.com/" if same_target else "http://e.com/new/a.html"
        store.add(
            Snapshot(
                url="http://e.com/dir/a.html",
                captured_at=T2014,
                initial_status=302,
                redirect_location=target,
                final_status=200,
                final_url=target,
            )
        )
        sibling_target = "http://e.com/" if same_target else "http://e.com/new/b.html"
        store.add(
            Snapshot(
                url="http://e.com/dir/b.html",
                captured_at=T2014.plus_days(30),
                initial_status=302,
                redirect_location=sibling_target,
                final_status=200,
                final_url=sibling_target,
            )
        )
        return store

    def test_unique_target_valid(self):
        store = self._store_with_redirects(same_target=False)
        validator = RedirectValidator(CdxApi(store))
        snapshot = store.snapshots("http://e.com/dir/a.html")[0]
        verdict = validator.validate(snapshot)
        assert verdict.valid
        assert verdict.siblings_compared == 1

    def test_shared_target_invalid(self):
        store = SnapshotStore()
        shared = "http://e.com/new/landing.html"
        for leaf in ("a", "b"):
            store.add(
                Snapshot(
                    url=f"http://e.com/dir/{leaf}.html",
                    captured_at=T2014,
                    initial_status=302,
                    redirect_location=shared,
                    final_status=200,
                    final_url=shared,
                )
            )
        validator = RedirectValidator(CdxApi(store))
        snapshot = store.snapshots("http://e.com/dir/a.html")[0]
        assert not validator.validate(snapshot).valid

    def test_root_target_always_invalid(self):
        store = self._store_with_redirects(same_target=True)
        validator = RedirectValidator(CdxApi(store))
        snapshot = store.snapshots("http://e.com/dir/a.html")[0]
        verdict = validator.validate(snapshot)
        assert not verdict.valid
        assert "root" in verdict.reason

    def test_login_target_invalid(self):
        store = SnapshotStore()
        store.add(
            Snapshot(
                url="http://e.com/dir/a.html",
                captured_at=T2014,
                initial_status=302,
                redirect_location="http://e.com/login",
                final_status=200,
                final_url="http://e.com/login",
            )
        )
        validator = RedirectValidator(CdxApi(store))
        verdict = validator.validate(store.snapshots("http://e.com/dir/a.html")[0])
        assert not verdict.valid and "login" in verdict.reason

    def test_sibling_outside_window_ignored(self):
        store = SnapshotStore()
        shared = "http://e.com/new/landing.html"
        store.add(
            Snapshot(
                url="http://e.com/dir/a.html",
                captured_at=T2014,
                initial_status=302,
                redirect_location=shared,
                final_status=200,
                final_url=shared,
            )
        )
        store.add(
            Snapshot(
                url="http://e.com/dir/b.html",
                captured_at=T2014.plus_days(2000),  # far outside 90 days
                initial_status=302,
                redirect_location=shared,
                final_status=200,
                final_url=shared,
            )
        )
        validator = RedirectValidator(CdxApi(store))
        verdict = validator.validate(store.snapshots("http://e.com/dir/a.html")[0])
        assert verdict.valid  # no contemporaneous duplication evidence

    def test_non_redirect_snapshot_invalid(self):
        store = SnapshotStore()
        snap = Snapshot(
            url="http://e.com/x", captured_at=T2014, initial_status=200,
            final_status=200, final_url="http://e.com/x",
        )
        store.add(snap)
        assert not RedirectValidator(CdxApi(store)).validate(snap).valid

    def test_find_valid_redirect_copy(self):
        store = self._store_with_redirects(same_target=False)
        validator = RedirectValidator(CdxApi(store))
        found = validator.find_valid_redirect_copy("http://e.com/dir/a.html")
        assert found is not None
        assert found.redirect_location == "http://e.com/new/a.html"

    def test_parameter_validation(self):
        store = SnapshotStore()
        with pytest.raises(ValueError):
            RedirectValidator(CdxApi(store), window_days=0)
        with pytest.raises(ValueError):
            RedirectValidator(CdxApi(store), max_siblings=-1)


class TestArchivedSoft404:
    def test_hard_404_copy_erroneous(self):
        store = SnapshotStore()
        snap = Snapshot(
            url="http://e.com/x", captured_at=T2014, initial_status=404,
            final_status=404, final_url="http://e.com/x",
        )
        store.add(snap)
        assert archived_copy_erroneous(snap, CdxApi(store))

    def test_genuine_200_copy_not_erroneous(self, micro_web):
        store = SnapshotStore()
        crawler = ArchiveCrawler(micro_web.fetcher(), store)
        snap = crawler.capture("http://news.example.com/stays/alive.html", T2010)
        crawler.capture("http://news.example.com/new/late-target.html", T2014)
        assert not archived_copy_erroneous(snap, CdxApi(store))

    def test_soft404_copy_detected_via_boilerplate_twin(self):
        web = LiveWeb()
        site = Site(
            hostname="s.example.com",
            seed="s404",
            created_at=T2005,
            missing_policy=MissingPagePolicy.SOFT_404,
        )
        web.add_site(site)
        store = SnapshotStore()
        crawler = ArchiveCrawler(web.fetcher(), store)
        snap_a = crawler.capture("http://s.example.com/gone/a.html", T2014)
        crawler.capture("http://s.example.com/gone/b.html", T2014.plus_days(10))
        assert snap_a.initial_status == 200
        assert archived_copy_erroneous(snap_a, CdxApi(store))


class TestTemporalAnalysis:
    def _census(self, url, captures, posted=T2010, marked=T2016):
        store = SnapshotStore()
        for at, status in captures:
            store.add(
                Snapshot(url=url, captured_at=at, initial_status=status,
                         final_status=status, final_url=url)
            )
        return census_link(record(url, posted=posted, marked=marked), CdxApi(store)), CdxApi(store)

    def test_gap_measured(self):
        census, cdx = self._census(
            "http://e.com/a", [(T2012, 404)], posted=T2010
        )
        report = temporal_analysis([census], cdx)
        (rec,) = report.records
        assert not rec.pre_posting_copy
        assert rec.gap_days == pytest.approx(T2010.days_until(T2012))

    def test_pre_posting_copy_separated(self):
        census, cdx = self._census(
            "http://e.com/a", [(T2008, 404)], posted=T2010
        )
        report = temporal_analysis([census], cdx)
        assert len(report.with_pre_posting_copy) == 1
        assert report.gap_population == []

    def test_same_day_erroneous(self):
        census, cdx = self._census(
            "http://e.com/a", [(T2010.plus_days(0.5), 404)], posted=T2010
        )
        report = temporal_analysis([census], cdx)
        (rec,) = report.same_day
        assert rec.first_copy_erroneous
        assert report.same_day_erroneous == [rec]

    def test_no_copy_links_skipped(self):
        census, cdx = self._census("http://e.com/a", [])
        report = temporal_analysis([census], cdx)
        assert report.records == []


class TestSpatialAnalysis:
    def test_neighbor_counts(self):
        store = SnapshotStore()
        for leaf in ("a", "b"):
            store.add(
                Snapshot(
                    url=f"http://e.com/dir/{leaf}.html",
                    captured_at=T2012,
                    initial_status=200,
                    final_status=200,
                    final_url=f"http://e.com/dir/{leaf}.html",
                )
            )
        store.add(
            Snapshot(
                url="http://e.com/other/c.html",
                captured_at=T2012,
                initial_status=404,
                final_status=404,
                final_url="http://e.com/other/c.html",
            )
        )
        report = spatial_analysis(
            [record("http://e.com/dir/never.html")], CdxApi(store)
        )
        (rec,) = report.records
        assert rec.directory_neighbors == 2
        assert rec.hostname_neighbors == 2  # the 404-only URL doesn't count
        assert not rec.directory_gap and not rec.hostname_gap

    def test_gaps(self):
        report = spatial_analysis(
            [record("http://lonely.example.org/x.html")], CdxApi(SnapshotStore())
        )
        (rec,) = report.records
        assert rec.directory_gap and rec.hostname_gap

    def test_query_param_counting(self):
        report = spatial_analysis(
            [record("http://e.com/x.asp?a=1&b=2&c=3&d=4")], CdxApi(SnapshotStore())
        )
        assert report.records[0].query_param_count == 4
        assert len(report.query_heavy) == 1


class TestTypoDetection:
    def _cdx_with(self, *urls):
        store = SnapshotStore()
        for url in urls:
            store.add(
                Snapshot(url=url, captured_at=T2012, initial_status=200,
                         final_status=200, final_url=url)
            )
        return CdxApi(store)

    def test_unique_distance_one_found(self):
        cdx = self._cdx_with("http://e.com/news/story.html")
        report = find_typos([record("http://e.com/news/storx.html")], cdx)
        assert len(report) == 1
        assert report.findings[0].corrected_url == "http://e.com/news/story.html"

    def test_ambiguous_family_skipped(self):
        cdx = self._cdx_with(
            "http://e.com/page1.html", "http://e.com/page2.html"
        )
        report = find_typos([record("http://e.com/page9.html")], cdx)
        assert len(report) == 0
        assert report.examined == 1

    def test_different_domain_not_considered(self):
        cdx = self._cdx_with("http://other.org/news/story.html")
        report = find_typos([record("http://e.com/news/storx.html")], cdx)
        assert len(report) == 0

    def test_subdomain_of_same_domain_considered(self):
        cdx = self._cdx_with("http://www.e.com/a/story.html")
        report = find_typos([record("http://www.e.com/a/storx.html")], cdx)
        assert len(report) == 1
