"""Tests for world-generation internals: events, articles, sweeps."""

import dataclasses

import pytest

from repro.archive.availability import AvailabilityApi
from repro.archive.crawler import ArchiveCrawler
from repro.archive.store import SnapshotStore
from repro.clock import SimTime
from repro.dataset.builder import WebBuilder, first_sweep_after
from repro.dataset.planner import plan_universe
from repro.dataset.worldgen import (
    WorldConfig,
    _assemble_events,
    _Event,
    _EventKind,
    _plan_articles,
    _plan_captures,
    _replay,
)
from repro.iabot.archive_client import IABotArchiveClient
from repro.iabot.bot import InternetArchiveBot, SweepShards
from repro.iabot.checker import LinkChecker
from repro.rng import RngRegistry
from repro.web.page import Page
from repro.web.site import Site
from repro.web.world import LiveWeb
from repro.wiki.encyclopedia import Encyclopedia


@pytest.fixture(scope="module")
def assembled():
    config = WorldConfig(n_links=400, target_sample=400, seed=31)
    rngs = RngRegistry(config.seed)
    plans = plan_universe(config, rngs)
    built = WebBuilder(config, rngs).build(plans)
    links = [link for plan in plans for link in plan.links]
    captures = _plan_captures(config, rngs, built, links)
    events = _assemble_events(config, rngs, built, links)
    return config, plans, built, links, (events, captures)


class TestEventAssembly:
    # ``_assemble_events`` returns the wiki, human-mark and sweep
    # events; ``_plan_captures`` the captures as ``(days, url)`` pairs.

    def test_events_sorted(self, assembled):
        config, _, built, links, (events, captures) = assembled
        keys = [event.sort_key() for event in events]
        assert keys == sorted(keys)
        seqs = sorted(event.seq for event in events)
        assert seqs == list(range(len(events)))
        days = [day for day, _ in captures]
        assert days == sorted(days)
        # Captures on one day keep plan order: organic before fixed,
        # fixed in list order, whatever their URLs sort as.
        tie_day, organic_url = next(
            (day, url) for day, url in captures
            if any(url == seed.url for seed in built.seeds)
        )
        tied = dataclasses.replace(
            built,
            fixed_captures=[
                *built.fixed_captures,
                ("http://tie.example/b", SimTime(tie_day)),
                ("http://tie.example/a", SimTime(tie_day)),
            ],
        )
        replanned = _plan_captures(config, RngRegistry(config.seed), tied, links)
        assert [url for day, url in replanned if day == tie_day] == [
            organic_url, "http://tie.example/b", "http://tie.example/a",
        ]

    def test_every_link_posted_exactly_once(self, assembled):
        _, _, _, links, (events, _) = assembled
        posted = []
        for event in events:
            if event.kind in (_EventKind.CREATE_ARTICLE, _EventKind.ADD_LINK):
                posted.append(event.payload[1].url)
        assert sorted(posted) == sorted(link.url for link in links)

    def test_sweep_count_matches_schedule(self, assembled):
        config, _, _, _, (events, _) = assembled
        sweeps = [e for e in events if e.kind is _EventKind.SWEEP]
        assert len(sweeps) == len(config.sweep_times)

    def test_sweep_shards_cycle(self, assembled):
        config, _, _, _, (events, _) = assembled
        shards = [e.payload[0] for e in events if e.kind is _EventKind.SWEEP]
        assert set(shards) == set(range(config.sweep_shards))

    def test_captures_before_study(self, assembled):
        config, _, _, _, (_, captures) = assembled
        assert captures
        for days, url in captures:
            assert days < config.study_time.days
            assert url.startswith("http")

    def test_same_instant_ordering_prefers_edits(self, assembled):
        # CREATE < ADD_LINK < HUMAN_MARK < SWEEP at equal time; captures
        # are not events (they all run first; see TestSweepVisibility).
        assert _EventKind.CREATE_ARTICLE < _EventKind.ADD_LINK
        assert _EventKind.HUMAN_MARK < _EventKind.SWEEP
        assert set(_EventKind) == {
            _EventKind.CREATE_ARTICLE,
            _EventKind.ADD_LINK,
            _EventKind.HUMAN_MARK,
            _EventKind.SWEEP,
        }


class TestSweepVisibility:
    SWEEP = SimTime.from_ymd(2016, 1, 1).days
    AT = "http://s.example/at.html"
    AFTER = "http://s.example/after.html"

    def test_sweep_sees_a_capture_at_its_own_instant_only(self):
        # The crawler archives a web where both pages work; the bot
        # checks one where the site is gone, so both links are dead.
        web = LiveWeb()
        site = Site(
            hostname="s.example", seed="s", created_at=SimTime.from_ymd(2005, 1)
        )
        created = SimTime.from_ymd(2006, 1)
        for path in ("/at.html", "/after.html"):
            site.add_page(Page(path_query=path, created_at=created))
        web.add_site(site)
        store = SnapshotStore()
        crawler = ArchiveCrawler(web.fetcher(), store)
        just_after = SimTime(self.SWEEP).plus_days(1e-6).days
        for days, url in ((self.SWEEP, self.AT), (just_after, self.AFTER)):
            crawler.capture_at(url, days)
        assert [len(store.snapshots(url)) for url in (self.AT, self.AFTER)] == [
            1, 1,
        ]

        encyclopedia = Encyclopedia()
        encyclopedia.create_article(
            "Page", created, "Editor",
            f"* [{self.AT} at]\n* [{self.AFTER} after]\n",
        )
        bot = InternetArchiveBot(
            encyclopedia,
            LinkChecker(LiveWeb().fetcher()),
            IABotArchiveClient(AvailabilityApi(store), timeout_ms=None),
        )
        sweep = _Event(self.SWEEP, _EventKind.SWEEP, 0, (0,))
        _replay([sweep], encyclopedia, bot, shards=1)

        assert (bot.stats.patched, bot.stats.marked_permadead) == (1, 1)
        refs = {
            ref.url: ref for ref in encyclopedia.article("Page").link_refs()
        }
        assert refs[self.AT].archive_url is not None
        assert refs[self.AFTER].is_permanently_dead


class TestArticlePlanning:
    def test_all_links_assigned_once(self, assembled):
        _, _, _, links, _ = assembled
        rng = RngRegistry(9).stream("t")
        articles = _plan_articles(links, rng)
        assigned = [link.url for _, chunk in articles for link in chunk]
        assert sorted(assigned) == sorted(link.url for link in links)

    def test_titles_unique(self, assembled):
        _, _, _, links, _ = assembled
        rng = RngRegistry(9).stream("t")
        articles = _plan_articles(links, rng)
        titles = [title for title, _ in articles]
        assert len(titles) == len(set(titles))

    def test_article_sizes_in_range(self, assembled):
        _, _, _, links, _ = assembled
        rng = RngRegistry(9).stream("t")
        for _, chunk in _plan_articles(links, rng):
            assert 1 <= len(chunk) <= 5


class TestSweepSharding:
    def test_stable_assignment(self):
        first, second = SweepShards(8), SweepShards(8)
        assert first.shard_of("Some Title") == second.shard_of("Some Title")
        assert first.shard_of("Some Title") == first.shard_of("Some Title")

    def test_spread_across_shards(self):
        sweep_shards = SweepShards(8)
        titles = [f"Title {i}" for i in range(200)]
        shards = {sweep_shards.shard_of(title) for title in titles}
        assert shards == set(range(8))
        # Each title lands in exactly one shard's selection, in order.
        picked = [sweep_shards.titles(titles, shard) for shard in range(8)]
        assert sorted(title for chunk in picked for title in chunk) == sorted(
            titles
        )
        assert all(list(chunk) == sorted(chunk, key=titles.index)
                   for chunk in picked)


class TestBuilderHelpers:
    def test_first_sweep_after(self):
        sweeps = (SimTime(100.0), SimTime(200.0), SimTime(300.0))
        assert first_sweep_after(SimTime(150.0), sweeps) == SimTime(200.0)
        assert first_sweep_after(SimTime(50.0), sweeps) == SimTime(100.0)
        assert first_sweep_after(SimTime(300.0), sweeps) is None

    def test_builder_urls_unique(self, assembled):
        _, _, built, links, _ = assembled
        urls = [link.url for link in links]
        assert len(urls) == len(set(urls))

    def test_truth_covers_all_links(self, assembled):
        _, _, built, links, _ = assembled
        for link in links:
            assert link.url in built.truth

    def test_rankings_cover_all_hostnames(self, assembled):
        _, _, built, links, _ = assembled
        for link in links:
            hostname = built.truth[link.url].hostname
            assert hostname in built.site_rankings
