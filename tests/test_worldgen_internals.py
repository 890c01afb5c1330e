"""Tests for world-generation internals: events, articles, sweeps."""

import pytest

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
    _replay,
    _sweep_shard,
)
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
    events = _assemble_events(config, rngs, built, links)
    return config, plans, built, links, events


class TestEventAssembly:
    # ``_assemble_events`` returns ``(events, captures)``: the wiki,
    # human-mark and sweep events, and the captures as ``(days, seq,
    # url)`` triples.

    def test_events_sorted(self, assembled):
        _, _, _, _, (events, captures) = assembled
        keys = [event.sort_key() for event in events]
        assert keys == sorted(keys)
        assert captures == sorted(captures)
        # One sequence counter numbers both lists.
        seqs = [event.seq for event in events] + [seq for _, seq, _ in captures]
        assert sorted(seqs) == list(range(len(seqs)))

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
        for days, _, url in captures:
            assert days < config.study_time.days
            assert url.startswith("http")

    def test_same_instant_ordering_prefers_edits(self, assembled):
        # CREATE < ADD_LINK < HUMAN_MARK < SWEEP at equal time; captures
        # are not events (see TestSweepVisibility for where they run).
        assert _EventKind.CREATE_ARTICLE < _EventKind.ADD_LINK
        assert _EventKind.HUMAN_MARK < _EventKind.SWEEP
        assert set(_EventKind) == {
            _EventKind.CREATE_ARTICLE,
            _EventKind.ADD_LINK,
            _EventKind.HUMAN_MARK,
            _EventKind.SWEEP,
        }


class _SweepRecorder:
    """A bot stand-in that records which URLs the archive held at each
    sweep."""

    def __init__(self, store: SnapshotStore) -> None:
        self._store = store
        self.seen: list[tuple[float, tuple[str, ...]]] = []

    def run_sweep(self, at, titles=()):
        self.seen.append((at.days, self._store.all_urls()))


class TestSweepVisibility:
    SWEEP_1 = SimTime.from_ymd(2016, 1, 1).days
    SWEEP_2 = SimTime.from_ymd(2016, 4, 1).days

    def _replay(self, captures):
        web = LiveWeb()
        site = Site(
            hostname="s.example", seed="s", created_at=SimTime.from_ymd(2005, 1)
        )
        created = SimTime.from_ymd(2006, 1)
        for path in ("/at.html", "/after.html", "/late.html"):
            site.add_page(Page(path_query=path, created_at=created))
        web.add_site(site)
        store = SnapshotStore()
        crawler = ArchiveCrawler(web.fetcher(), store)
        bot = _SweepRecorder(store)
        events = [
            _Event(self.SWEEP_1, _EventKind.SWEEP, 0, (0,)),
            _Event(self.SWEEP_2, _EventKind.SWEEP, 1, (0,)),
        ]
        _replay(events, captures, Encyclopedia(), crawler, bot, shards=1)
        return bot.seen, store

    def test_sweep_sees_a_capture_at_its_own_instant_only(self):
        at = "http://s.example/at.html"
        after = "http://s.example/after.html"
        late = "http://s.example/late.html"
        just_after = SimTime(self.SWEEP_1).plus_days(1e-6).days
        seen, store = self._replay(
            [(self.SWEEP_1, 2, at), (just_after, 3, after), (3e5, 4, late)]
        )
        assert seen == [
            (self.SWEEP_1, (at,)),
            (self.SWEEP_2, tuple(sorted((at, after)))),
        ]
        # Captures after the last sweep still run.
        assert store.all_urls() == tuple(sorted((at, after, late)))


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
        assert _sweep_shard("Some Title", 8) == _sweep_shard("Some Title", 8)

    def test_spread_across_shards(self):
        shards = {_sweep_shard(f"Title {i}", 8) for i in range(200)}
        assert shards == set(range(8))


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
