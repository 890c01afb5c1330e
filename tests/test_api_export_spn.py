"""Tests for the WikiApi, dataset export, Save Page Now, and
representativeness modules."""

import pytest

from repro.analysis.representativeness import compare_datasets
from repro.archive.crawler import ArchiveCrawler
from repro.archive.savepagenow import SaveOutcome, SavePageNow
from repro.archive.store import SnapshotStore
from repro.clock import SimTime
from repro.dataset.collector import Collector
from repro.dataset.export import (
    dumps_csv,
    dumps_jsonl,
    load_dataset,
    loads_jsonl,
    save_dataset,
)
from repro.dataset.records import Dataset, LinkRecord
from repro.dataset.sampler import sample_iabot_marked
from repro.errors import DatasetError, WikiError
from repro.web.page import Page, PageFate
from repro.web.robots import RobotsRules
from repro.web.site import Site
from repro.web.world import LiveWeb
from repro.wiki.api import WikiApi
from repro.wiki.encyclopedia import Encyclopedia, PERMADEAD_CATEGORY
from repro.wiki.templates import IABOT_USERNAME, cite_web, dead_link

T2005 = SimTime.from_ymd(2005, 1, 1)
T2008 = SimTime.from_ymd(2008, 1, 1)
T2010 = SimTime.from_ymd(2010, 1, 1)
T2012 = SimTime.from_ymd(2012, 1, 1)
T2016 = SimTime.from_ymd(2016, 1, 1)


class TestWikiApi:
    def _enc(self, n_articles=7) -> Encyclopedia:
        enc = Encyclopedia()
        for index in range(n_articles):
            url = f"http://e{index}.example.com/x"
            body = (
                "* " + cite_web(url, "t").render()
                + dead_link(T2016, IABOT_USERNAME).render()
            )
            enc.create_article(f"Article {index:02d}", T2010, "U", body)
        return enc

    def test_category_pagination(self):
        api = WikiApi(self._enc())
        first = api.category_members(PERMADEAD_CATEGORY, limit=3)
        assert len(first.titles) == 3
        assert first.continue_token == first.titles[-1]
        second = api.category_members(
            PERMADEAD_CATEGORY, limit=3, continue_token=first.continue_token
        )
        assert second.titles[0] > first.titles[-1]

    def test_drain_matches_direct_listing(self):
        enc = self._enc()
        api = WikiApi(enc)
        assert api.all_category_members(PERMADEAD_CATEGORY) == (
            enc.articles_in_category(PERMADEAD_CATEGORY)
        )

    def test_revisions_pagination(self):
        enc = self._enc(1)
        title = enc.titles()[0]
        for day in range(5):
            enc.edit_article(
                title, T2010.plus_days(day + 1), "U",
                enc.article(title).wikitext + f"\nedit {day}",
            )
        api = WikiApi(enc)
        page = api.revisions(title, limit=2)
        assert [r.revision_id for r in page.revisions] == [1, 2]
        page2 = api.revisions(title, limit=2, continue_token=page.continue_token)
        assert [r.revision_id for r in page2.revisions] == [3, 4]
        everything = api.all_revisions(title)
        assert [r.revision_id for r in everything] == [1, 2, 3, 4, 5, 6]

    def test_bad_continue_token(self):
        api = WikiApi(self._enc(1))
        title = api.all_category_members(PERMADEAD_CATEGORY)[0]
        with pytest.raises(WikiError):
            api.revisions(title, continue_token="not-a-number")

    def test_limit_validation(self):
        api = WikiApi(self._enc(1))
        with pytest.raises(WikiError):
            api.category_members(PERMADEAD_CATEGORY, limit=0)

    def test_request_counting(self):
        api = WikiApi(self._enc(3))
        api.all_category_members(PERMADEAD_CATEGORY)
        assert api.request_count >= 1

    def test_events_since(self):
        enc = self._enc(3)
        api = WikiApi(enc)
        events = api.link_posted_events_since(T2008)
        assert len(events) == 3
        assert api.link_posted_events_since(T2012) == ()


def _sample_dataset() -> Dataset:
    records = [
        LinkRecord(
            url=f"http://site{i}.example.com/a/{i}.html",
            article_title=f"T{i}",
            posted_at=T2008.plus_days(i * 100),
            marked_at=T2016,
            marked_by=IABOT_USERNAME,
            site_ranking=1000 * (i + 1) if i % 2 == 0 else None,
        )
        for i in range(6)
    ]
    return Dataset(records=records, description="test export")


class TestExport:
    def test_jsonl_roundtrip(self):
        dataset = _sample_dataset()
        restored = loads_jsonl(dumps_jsonl(dataset))
        assert restored.description == dataset.description
        assert restored.records == dataset.records

    def test_header_validation(self):
        with pytest.raises(DatasetError):
            loads_jsonl('{"kind": "something-else"}\n')
        with pytest.raises(DatasetError):
            loads_jsonl("")

    def test_count_mismatch_detected(self):
        dataset = _sample_dataset()
        text = dumps_jsonl(dataset)
        truncated = "\n".join(text.splitlines()[:-1]) + "\n"
        with pytest.raises(DatasetError):
            loads_jsonl(truncated)

    def test_csv_columns(self):
        out = dumps_csv(_sample_dataset())
        lines = out.strip().splitlines()
        assert lines[0].startswith("url,article_title,posted_date")
        assert len(lines) == 7
        assert "site0.example.com" in lines[1]

    def test_save_load_files(self, tmp_path):
        dataset = _sample_dataset()
        jsonl = str(tmp_path / "data.jsonl")
        save_dataset(dataset, jsonl)
        assert load_dataset(jsonl).records == dataset.records
        csv_path = str(tmp_path / "data.csv")
        save_dataset(dataset, csv_path)
        with pytest.raises(DatasetError):
            load_dataset(csv_path)

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(DatasetError):
            save_dataset(_sample_dataset(), str(tmp_path / "data.parquet"))


def _spn_web() -> LiveWeb:
    web = LiveWeb()
    site = Site(
        hostname="spn.example.com",
        seed="spn",
        created_at=T2005,
        robots=RobotsRules(disallow=("/private/",)),
    )
    site.add_page(Page(path_query="/good.html", created_at=T2008))
    site.add_page(
        Page(
            path_query="/gone.html",
            created_at=T2008,
            fate=PageFate.DELETED,
            died_at=T2010,
        )
    )
    site.add_page(Page(path_query="/private/page.html", created_at=T2008))
    web.add_site(site)
    return web


class TestSavePageNow:
    def _spn(self, web):
        store = SnapshotStore()
        return SavePageNow(ArchiveCrawler(web.fetcher(), store)), store

    def test_saves_live_page(self):
        web = _spn_web()
        spn, store = self._spn(web)
        result = spn.save("http://spn.example.com/good.html", T2012)
        assert result.outcome is SaveOutcome.SAVED
        assert result.link_looks_alive
        assert store.snapshots("http://spn.example.com/good.html")

    def test_reports_error_page(self):
        web = _spn_web()
        spn, store = self._spn(web)
        result = spn.save("http://spn.example.com/gone.html", T2012)
        assert result.outcome is SaveOutcome.SAVED_ERROR_PAGE
        assert not result.link_looks_alive
        assert result.snapshot.initial_status == 404

    def test_robots_blocked(self):
        web = _spn_web()
        spn, store = self._spn(web)
        result = spn.save("http://spn.example.com/private/page.html", T2012)
        assert result.outcome is SaveOutcome.BLOCKED
        assert len(store) == 0

    def test_policy_blocked(self):
        web = _spn_web()
        spn, _ = self._spn(web)
        result = spn.save(
            "http://spn.example.com/x.asp?a=1&b=2&c=3&d=4", T2012
        )
        assert result.outcome is SaveOutcome.BLOCKED

    def test_unreachable(self):
        web = _spn_web()
        spn, _ = self._spn(web)
        result = spn.save("http://nowhere.example.org/x", T2012)
        assert result.outcome is SaveOutcome.UNREACHABLE


class TestRepresentativeness:
    def test_dataset_vs_random_sample(self, small_world):
        collector = Collector(small_world.encyclopedia, small_world.site_rankings)
        all_links = collector.collect()
        k = min(len(all_links), 140)
        ours = collector.to_dataset(sample_iabot_marked(all_links, k, seed=1))
        control = collector.to_dataset(sample_iabot_marked(all_links, k, seed=2))
        report = compare_datasets(
            ours, control, small_world.fetcher(), small_world.study_time,
            ks_threshold=0.15, tv_threshold=0.15,  # n~140: binomial noise
        )
        assert report.representative, report.describe()

    def test_divergent_samples_flagged(self, small_world):
        collector = Collector(small_world.encyclopedia, small_world.site_rankings)
        all_links = collector.collect()
        sample = collector.to_dataset(
            sample_iabot_marked(all_links, min(len(all_links), 140), seed=1)
        )
        # A control made only of early-posted links must diverge.
        early = sorted(all_links, key=lambda l: l.posted_at.days)[:60]
        biased = collector.to_dataset(early)
        report = compare_datasets(
            sample, biased, small_world.fetcher(), small_world.study_time,
            ks_threshold=0.15, tv_threshold=0.15,
        )
        assert not report.representative
