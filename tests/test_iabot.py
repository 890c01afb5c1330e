"""Tests for repro.iabot — checker, archive client, bot, medic.

These use a hand-built mini-world so every policy can be exercised
against known lifecycles.
"""

import pytest

from repro.archive.availability import AvailabilityApi, AvailabilityPolicy
from repro.archive.crawler import ArchiveCrawler
from repro.archive.store import SnapshotStore
from repro.clock import SimTime
from repro.iabot.archive_client import IABotArchiveClient
from repro.iabot.bot import InternetArchiveBot, _splice
from repro.iabot.checker import LinkChecker
from repro.iabot.config import IABotConfig
from repro.iabot.medic import WaybackMedic
from repro.wiki.encyclopedia import Encyclopedia, PERMADEAD_CATEGORY
from repro.wiki.templates import IABOT_USERNAME, cite_web
from repro.web.behaviors import MissingPagePolicy
from repro.web.page import Page, PageFate
from repro.web.site import Site
from repro.web.world import LiveWeb

T2005 = SimTime.from_ymd(2005, 1, 1)
T2008 = SimTime.from_ymd(2008, 1, 1)
T2010 = SimTime.from_ymd(2010, 1, 1)
T2012 = SimTime.from_ymd(2012, 1, 1)
T2014 = SimTime.from_ymd(2014, 1, 1)
T2017 = SimTime.from_ymd(2017, 1, 1)
T2021 = SimTime.from_ymd(2021, 6, 1)

ALIVE = "http://w.example.com/alive.html"
DEAD = "http://w.example.com/dead.html"
DEAD_UNARCHIVED = "http://w.example.com/dead-unarchived.html"


@pytest.fixture
def mini():
    """(web, store, enc) with one site, three links, a seeded archive."""
    web = LiveWeb()
    site = Site(
        hostname="w.example.com",
        seed="mini",
        created_at=T2005,
        missing_policy=MissingPagePolicy.HARD_404,
    )
    site.add_page(Page(path_query="/alive.html", created_at=T2008))
    site.add_page(
        Page(
            path_query="/dead.html",
            created_at=T2008,
            fate=PageFate.DELETED,
            died_at=T2012,
        )
    )
    site.add_page(
        Page(
            path_query="/dead-unarchived.html",
            created_at=T2008,
            fate=PageFate.DELETED,
            died_at=T2012,
        )
    )
    web.add_site(site)

    store = SnapshotStore()
    crawler = ArchiveCrawler(web.fetcher(), store)
    crawler.capture(DEAD, T2010)   # a usable initial-200 copy
    crawler.capture(DEAD, T2014)   # a 404 copy after death

    enc = Encyclopedia()
    enc.create_article(
        "Test Article",
        T2010,
        "Human",
        "== Refs ==\n* " + cite_web(ALIVE, "a").render()
        + "\n* " + cite_web(DEAD, "b").render()
        + "\n* " + cite_web(DEAD_UNARCHIVED, "c").render() + "\n",
    )
    return web, store, enc


def make_bot(web, store, enc, timeout_ms=None, recheck=False):
    api = AvailabilityApi(store, AvailabilityPolicy(seed="bot-test"))
    return InternetArchiveBot(
        enc,
        LinkChecker(web.fetcher()),
        IABotArchiveClient(api, timeout_ms=timeout_ms),
        IABotConfig(availability_timeout_ms=timeout_ms, recheck_marked_links=recheck),
    )


class TestLinkChecker:
    def test_alive(self, mini):
        web, _, _ = mini
        verdict = LinkChecker(web.fetcher()).check(ALIVE, T2017)
        assert not verdict.dead

    def test_dead(self, mini):
        web, _, _ = mini
        verdict = LinkChecker(web.fetcher()).check(DEAD, T2017)
        assert verdict.dead
        assert verdict.last_result.final_status == 404

    def test_single_check_by_default(self, mini):
        web, _, _ = mini
        checker = LinkChecker(web.fetcher())
        checker.check(DEAD, T2017)
        assert checker.checks_performed == 1

    def test_multiple_checks_configurable(self, mini):
        web, _, _ = mini
        checker = LinkChecker(web.fetcher(), checks_before_dead=3)
        verdict = checker.check(DEAD, T2017)
        assert verdict.dead
        assert len(verdict.attempts) == 3

    def test_alive_short_circuits(self, mini):
        web, _, _ = mini
        checker = LinkChecker(web.fetcher(), checks_before_dead=3)
        verdict = checker.check(ALIVE, T2017)
        assert len(verdict.attempts) == 1

    def test_validation(self, mini):
        web, _, _ = mini
        with pytest.raises(ValueError):
            LinkChecker(web.fetcher(), checks_before_dead=0)


class TestArchiveClient:
    def test_finds_initial_200_copy(self, mini):
        _, store, _ = mini
        api = AvailabilityApi(store, AvailabilityPolicy(seed="c"))
        client = IABotArchiveClient(api, timeout_ms=None)
        copy = client.find_copy(DEAD, posted_at=T2010, as_of=T2017)
        assert copy is not None
        assert copy.initial_status == 200

    def test_no_copy_for_unarchived(self, mini):
        _, store, _ = mini
        api = AvailabilityApi(store, AvailabilityPolicy(seed="c"))
        client = IABotArchiveClient(api, timeout_ms=None)
        copy = client.find_copy(DEAD_UNARCHIVED, posted_at=T2010, as_of=T2017)
        assert copy is None

    def test_timeout_reads_as_no_copy(self, mini):
        _, store, _ = mini
        api = AvailabilityApi(
            store, AvailabilityPolicy(base_ms=100.0, seed="c")
        )
        client = IABotArchiveClient(api, timeout_ms=0.5)
        assert client.find_copy(DEAD, posted_at=T2010, as_of=T2017) is None
        assert client.timeouts == 1


class TestBot:
    def test_patches_dead_link_with_copy(self, mini):
        web, store, enc = mini
        bot = make_bot(web, store, enc)
        stats = bot.run_sweep(T2017)
        assert stats.patched == 1
        assert stats.marked_permadead == 1  # the unarchived one
        assert stats.links_alive == 1
        refs = {r.url: r for r in enc.article("Test Article").link_refs()}
        assert refs[DEAD].archive_url is not None
        assert refs[DEAD_UNARCHIVED].is_permanently_dead
        assert not refs[ALIVE].is_marked_dead

    def test_edit_authored_by_iabot(self, mini):
        web, store, enc = mini
        make_bot(web, store, enc).run_sweep(T2017)
        assert enc.article("Test Article").latest.user == IABOT_USERNAME

    def test_category_filed(self, mini):
        web, store, enc = mini
        make_bot(web, store, enc).run_sweep(T2017)
        assert enc.articles_in_category(PERMADEAD_CATEGORY) == ("Test Article",)

    def test_marked_links_skipped_on_next_sweep(self, mini):
        web, store, enc = mini
        bot = make_bot(web, store, enc)
        bot.run_sweep(T2017)
        second = bot.run_sweep(T2017.plus_days(200))
        assert second.skipped_marked == 1
        assert second.skipped_patched == 1
        assert second.marked_permadead == 0

    def test_recheck_mode_unmarks_revived_link(self):
        web = LiveWeb()
        site = Site(hostname="r.example.com", seed="r", created_at=T2005)
        site.add_page(
            Page(
                path_query="/page.html",
                created_at=T2008,
                fate=PageFate.DELETED,
                died_at=T2012,
                revived_at=SimTime.from_ymd(2019, 1, 1),
            )
        )
        web.add_site(site)
        enc = Encyclopedia()
        url = "http://r.example.com/page.html"
        enc.create_article(
            "Revived", T2010, "H", "* " + cite_web(url, "x").render()
        )
        store = SnapshotStore()
        bot = make_bot(web, store, enc, recheck=True)
        bot.run_sweep(T2017)  # marks it
        assert enc.articles_in_category(PERMADEAD_CATEGORY) == ("Revived",)
        stats = bot.run_sweep(T2021)  # finds it working again
        assert stats.unmarked_revived == 1
        assert enc.articles_in_category(PERMADEAD_CATEGORY) == ()

    def test_no_recheck_by_default_even_if_revived(self):
        web = LiveWeb()
        site = Site(hostname="r.example.com", seed="r", created_at=T2005)
        site.add_page(
            Page(
                path_query="/page.html",
                created_at=T2008,
                fate=PageFate.DELETED,
                died_at=T2012,
                revived_at=SimTime.from_ymd(2019, 1, 1),
            )
        )
        web.add_site(site)
        enc = Encyclopedia()
        url = "http://r.example.com/page.html"
        enc.create_article("Revived", T2010, "H", "* " + cite_web(url, "x").render())
        bot = make_bot(web, SnapshotStore(), enc)
        bot.run_sweep(T2017)
        bot.run_sweep(T2021)
        assert enc.articles_in_category(PERMADEAD_CATEGORY) == ("Revived",)

    def test_bare_link_patched_with_webarchive(self, mini):
        web, store, enc = mini
        enc.create_article(
            "Bare", T2010, "H", f"see [{DEAD} caption] here"
        )
        make_bot(web, store, enc).run_sweep(T2017)
        (ref,) = enc.article("Bare").link_refs()
        assert ref.archive_url is not None
        assert ref.title == "caption"

    def test_snapshot_closest_to_posting_chosen(self, mini):
        web, store, enc = mini
        # DEAD has copies at 2010 (200) and 2014 (404); posted 2010 →
        # the 200 from 2010 must be chosen, and the patch must carry
        # its timestamp.
        make_bot(web, store, enc).run_sweep(T2017)
        refs = {r.url: r for r in enc.article("Test Article").link_refs()}
        assert "/2010" in refs[DEAD].archive_url.replace("20100101000000", "/2010")


class TestSplice:
    def test_multiple_replacements(self):
        text = "aa XX bb YY cc"
        out = _splice(text, [((3, 5), "11"), ((9, 11), "2222")])
        assert out == "aa 11 bb 2222 cc"

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            _splice("abcdef", [((0, 3), "x"), ((2, 4), "y")])


class TestWaybackMedic:
    def test_patient_lookup_rescues_timeout_victims(self, mini):
        web, store, enc = mini
        # A bot with an absurdly tight timeout marks everything dead...
        bot = make_bot(web, store, enc, timeout_ms=0.0001)
        bot.run_sweep(T2017)
        refs = {r.url: r for r in enc.article("Test Article").link_refs()}
        assert refs[DEAD].is_permanently_dead
        # ...and the medic rescues the one with a real copy.
        api = AvailabilityApi(store, AvailabilityPolicy(seed="medic"))
        medic = WaybackMedic(enc, api)
        report = medic.run(T2021)
        assert report.patched_with_200_copy == 1
        assert report.still_permadead == 1
        refs = {r.url: r for r in enc.article("Test Article").link_refs()}
        assert refs[DEAD].archive_url is not None
        assert refs[DEAD_UNARCHIVED].is_permanently_dead

    def test_redirect_finder_hook(self, mini):
        web, store, enc = mini
        bot = make_bot(web, store, enc, timeout_ms=0.0001)
        bot.run_sweep(T2017)
        from repro.archive.snapshot import Snapshot

        fake_copy = Snapshot(
            url=DEAD_UNARCHIVED,
            captured_at=T2010,
            initial_status=301,
            redirect_location="http://w.example.com/alive.html",
            final_status=200,
            final_url="http://w.example.com/alive.html",
        )

        api = AvailabilityApi(store, AvailabilityPolicy(seed="medic2"))
        medic = WaybackMedic(
            enc, api, redirect_finder=lambda url, marked: (
                fake_copy if url == DEAD_UNARCHIVED else None
            )
        )
        report = medic.run(T2021)
        assert report.patched_with_validated_redirect == 1
        assert report.still_permadead == 0
