"""Freshness horizons and the archive crawler's reuse of fresh answers.

Every answer of the simulated web carries ``fresh_until``: the first
instant after the request at which the answer for that URL can differ.
:class:`~repro.archive.crawler.ArchiveCrawler` records its last
observation of a URL again, without fetching, while that observation
is fresh. These tests pin down that the reuse is exact:

- a grid of captures around every kind of boundary, on one crawler,
  must equal fresh fetches at the same instants;
- every time-valued field of the web model must feed the horizon
  (a guard for fields added later);
- answers that nothing vouches for (fault wrappers, scripted origins)
  are fetched again on every capture;
- a robots.txt refresh that reuses the last fetch of the same robots
  URL decides exactly as a fetch at every refresh would.
"""

from __future__ import annotations

import dataclasses
import math
import re

import pytest

from repro.archive.crawler import ROBOTS_CACHE_DAYS, ArchiveCrawler, BodySketcher
from repro.archive.snapshot import Snapshot
from repro.archive.store import SnapshotStore
from repro.clock import SimTime
from repro.faults.inject import FaultyDns, FaultyOrigin
from repro.faults.plan import FaultPlan, FaultSpec
from repro.net.dns import DnsRecord, DnsTable
from repro.net.fetch import Fetcher, FetchResult
from repro.net.http import HttpResponse
from repro.net.status import Outcome
from repro.web.behaviors import (
    GeoPolicy,
    MissingPagePolicy,
    OutageWindow,
    SiteState,
)
from repro.web.page import Page, PageFate
from repro.web.robots import RobotsRules
from repro.web.site import Site
from repro.web.world import LiveWeb


def _d(year: int, month: int = 1, day: int = 1) -> SimTime:
    return SimTime.from_ymd(year, month, day)


T_SITES = _d(2005)
T_PAGES = _d(2006)


# -- the grid web ---------------------------------------------------------------------

#: Every instant at which some answer of the grid web changes.
GRID_BOUNDARIES = (
    _d(2007, 2),   # /revived.html created
    _d(2007, 9),   # /moved.html created
    _d(2008, 6),   # /view.php?a=1&b=2 created
    _d(2009, 1),   # /to-flaky.html moves, redirect added at once
    _d(2009, 4),   # policy.example: HARD_404 -> SOFT_404
    _d(2010, 5),   # outage starts
    _d(2010, 8),   # outage ends
    _d(2010, 11),  # /revived.html deleted
    _d(2011, 3),   # geo403.example blocked
    _d(2011, 7),   # /moved.html dies; /new-home.html created
    _d(2012),      # lapse.example's DNS lapses
    _d(2012, 10),  # /moved.html redirect added
    _d(2013),      # squatter registers lapse.example
    _d(2013, 6),   # squatter's lander goes up
    _d(2014),      # /loop-a.html and /loop-b.html redirect to each other
    _d(2014, 9),   # geotimeout.example blocked
    _d(2015, 2),   # policy.example: SOFT_404 -> REDIRECT_OFFSITE
    _d(2016, 4),   # /revived.html revived
    _d(2017, 7),   # landing.example's DNS lapses
    _d(2018, 5),   # /moved.html redirect removed
    _d(2019),      # /view.php?a=1&b=2 deleted
    _d(2019, 9),   # /loop-b.html redirect removed
)

GRID_URLS = (
    "http://lapse.example/story.html",
    "http://geo403.example/a.html",
    "http://geotimeout.example/a.html",
    "http://outage.example/a.html",
    "http://flaky.example/a.html",
    "http://policy.example/missing.html",
    "http://pages.example/revived.html",
    "http://pages.example/moved.html",
    "http://pages.example/view.php?b=2&a=1",
    "http://pages.example/to-flaky.html",
    "http://pages.example/loop-a.html",
    "http://never.example/x",
)


def _alive(path: str, created_at: SimTime = T_PAGES) -> Page:
    return Page(path_query=path, created_at=created_at)


def _site(hostname: str, *pages: Page, **kwargs) -> Site:
    kwargs.setdefault("created_at", T_SITES)
    site = Site(hostname=hostname, seed=hostname, **kwargs)
    for page in pages:
        site.add_page(page)
    return site


def _grid_web() -> LiveWeb:
    """One small web with every kind of freshness boundary."""
    web = LiveWeb()
    lapsing = _site("lapse.example", _alive("/story.html"), dns_dies_at=_d(2012))
    web.add_site(lapsing)
    web.add_parked_successor(
        lapsing,
        Site(
            hostname="lapse.example",
            seed="squatter",
            created_at=_d(2013),
            state=SiteState(parked_from=_d(2013, 6)),
        ),
    )
    web.add_site(
        _site(
            "geo403.example",
            _alive("/a.html"),
            state=SiteState(geo=GeoPolicy.BLOCKED_403, geo_from=_d(2011, 3)),
        )
    )
    web.add_site(
        _site(
            "geotimeout.example",
            _alive("/a.html"),
            state=SiteState(geo=GeoPolicy.BLOCKED_TIMEOUT, geo_from=_d(2014, 9)),
        )
    )
    web.add_site(
        _site(
            "outage.example",
            _alive("/a.html"),
            state=SiteState(outages=(OutageWindow(_d(2010, 5), _d(2010, 8)),)),
        )
    )
    web.add_site(
        _site(
            "flaky.example",
            _alive("/a.html"),
            state=SiteState(timeout_probability=0.5),
        )
    )
    web.add_site(
        _site(
            "policy.example",
            missing_policy=MissingPagePolicy.HARD_404,
            policy_changes=(
                (_d(2009, 4), MissingPagePolicy.SOFT_404),
                (_d(2015, 2), MissingPagePolicy.REDIRECT_OFFSITE),
            ),
            offsite_redirect_target="http://landing.example/offer",
        )
    )
    web.add_site(
        _site("landing.example", _alive("/offer"), dns_dies_at=_d(2017, 7))
    )
    web.add_site(
        _site(
            "pages.example",
            Page(
                path_query="/revived.html",
                created_at=_d(2007, 2),
                fate=PageFate.DELETED,
                died_at=_d(2010, 11),
                revived_at=_d(2016, 4),
            ),
            Page(
                path_query="/moved.html",
                created_at=_d(2007, 9),
                fate=PageFate.MOVED,
                died_at=_d(2011, 7),
                moved_to="http://pages.example/new-home.html",
                redirect_added_at=_d(2012, 10),
                redirect_removed_at=_d(2018, 5),
            ),
            _alive("/new-home.html", created_at=_d(2011, 7)),
            Page(
                path_query="/view.php?a=1&b=2",
                created_at=_d(2008, 6),
                fate=PageFate.DELETED,
                died_at=_d(2019),
            ),
            Page(
                path_query="/to-flaky.html",
                created_at=T_PAGES,
                fate=PageFate.MOVED,
                died_at=_d(2009, 1),
                moved_to="http://flaky.example/a.html",
                redirect_added_at=_d(2009, 1),
            ),
            Page(
                path_query="/loop-a.html",
                created_at=T_PAGES,
                fate=PageFate.MOVED,
                died_at=_d(2014),
                moved_to="http://pages.example/loop-b.html",
                redirect_added_at=_d(2014),
            ),
            Page(
                path_query="/loop-b.html",
                created_at=T_PAGES,
                fate=PageFate.MOVED,
                died_at=_d(2014),
                moved_to="http://pages.example/loop-a.html",
                redirect_added_at=_d(2014),
                redirect_removed_at=_d(2019, 9),
            ),
        )
    )
    return web


def _grid_times() -> list[SimTime]:
    """Just before, exactly at and just after every boundary."""
    times = set()
    for boundary in GRID_BOUNDARIES:
        for offset in (-0.25, 0.0, 0.25):
            times.add(boundary.plus_days(offset))
    return sorted(times)


def _expected(web: LiveWeb, sketcher: BodySketcher, url: str, at: SimTime):
    """What a capture of ``url`` at ``at`` records, from a fresh fetch."""
    chain = web.fetch(url, at).chain
    if not chain:
        return None
    initial, final = chain[0], chain[-1]
    return Snapshot(
        url=url,
        captured_at=at,
        initial_status=initial.status,
        redirect_location=initial.location if initial.is_redirect else None,
        final_status=final.status,
        final_url=final.url,
        sketch=sketcher.sketch(final.body),
    )


def test_grid_captures_equal_fresh_fetches():
    web = _grid_web()
    fetcher = web.fetcher()
    store = SnapshotStore()
    # Robots checks are left out so that every fetch is a page fetch.
    crawler = ArchiveCrawler(fetcher, store, honor_robots=False)
    oracle = BodySketcher()
    captures = 0
    seen: dict[str, set] = {url: set() for url in GRID_URLS}
    for at in _grid_times():
        for url in GRID_URLS:
            got = crawler.capture(url, at)
            assert got == _expected(web, oracle, url, at), (url, at)
            captures += 1
            seen[url].add(None if got is None else got.initial_status)
    assert crawler.capture_attempts == captures
    assert len(store) == captures - crawler.capture_failures
    # The flaky site both answered and timed out somewhere on the grid,
    # so its day boundary mattered; the loop formed and broke again.
    assert seen["http://flaky.example/a.html"] == {None, 200}
    assert seen["http://pages.example/loop-a.html"] == {200, 301}
    # Most captures were answered without a fetch.
    assert fetcher.fetch_count < captures // 2


def test_stamps_of_edge_answers():
    web = _grid_web()
    at = _d(2010)
    never = web.fetch("http://never.example/x", at)
    assert never.fresh_until == math.inf
    malformed = web.fetch("not a url", at)
    assert malformed.fresh_until == math.inf
    lapsed = web.fetch("http://lapse.example/story.html", _d(2012, 6))
    assert lapsed.fresh_until == _d(2013).days
    flaky = web.fetch("http://flaky.example/a.html", _d(2010).plus_days(0.3))
    assert flaky.fresh_until == _d(2010).days + 1.0


# -- guard: every time field of the web model feeds the horizon -----------------

#: The boundary each guard scenario puts in the web.
B = _d(2015, 3)
BEFORE_B = B.plus_days(-0.25)


def _guard_page(**kwargs) -> tuple[LiveWeb, str]:
    web = LiveWeb()
    page = Page(path_query="/p.html", **kwargs)
    web.add_site(_site("g.example", page, _alive("/target")))
    return web, "http://g.example/p.html"


def _guard_site(**kwargs) -> tuple[LiveWeb, str]:
    web = LiveWeb()
    web.add_site(_site("g.example", _alive("/p.html"), **kwargs))
    return web, "http://g.example/p.html"


def _guard_state(**kwargs) -> tuple[LiveWeb, str]:
    return _guard_site(state=SiteState(**kwargs))


def _guard_policy() -> tuple[LiveWeb, str]:
    web, _ = _guard_site(policy_changes=((B, MissingPagePolicy.SOFT_404),))
    return web, "http://g.example/missing.html"


def _guard_alias(**interval) -> tuple[LiveWeb, str]:
    """A second hostname for the guard site, registered for ``interval``."""
    web, _ = _guard_site()
    web.dns.register(DnsRecord("alias.example", "site:g.example", **interval))
    return web, "http://alias.example/p.html"


_MOVED = dict(
    created_at=T_PAGES,
    fate=PageFate.MOVED,
    died_at=_d(2008),
    moved_to="http://g.example/target",
)

#: ``(class name, field name) -> function making (web, url)`` whose answer
#: changes at :data:`B`. A new time field needs a scenario here, and
#: its boundary must reach the horizon.
GUARD_SCENARIOS = {
    ("Site", "created_at"): lambda: _guard_site(created_at=B),
    ("Site", "dns_dies_at"): lambda: _guard_site(dns_dies_at=B),
    ("Site", "policy_changes"): _guard_policy,
    ("SiteState", "parked_from"): lambda: _guard_state(parked_from=B),
    ("SiteState", "geo_from"): lambda: _guard_state(
        geo=GeoPolicy.BLOCKED_403, geo_from=B
    ),
    ("OutageWindow", "start"): lambda: _guard_state(
        outages=(OutageWindow(B, B.plus_days(30)),)
    ),
    ("OutageWindow", "end"): lambda: _guard_state(
        outages=(OutageWindow(_d(2015), B),)
    ),
    ("Page", "created_at"): lambda: _guard_page(created_at=B),
    ("Page", "died_at"): lambda: _guard_page(
        created_at=T_PAGES, fate=PageFate.DELETED, died_at=B
    ),
    ("Page", "redirect_added_at"): lambda: _guard_page(
        **_MOVED, redirect_added_at=B
    ),
    ("Page", "redirect_removed_at"): lambda: _guard_page(
        **_MOVED, redirect_added_at=_d(2009), redirect_removed_at=B
    ),
    ("Page", "revived_at"): lambda: _guard_page(
        created_at=T_PAGES, fate=PageFate.DELETED, died_at=_d(2008), revived_at=B
    ),
    ("DnsRecord", "registered_at"): lambda: _guard_alias(registered_at=B),
    ("DnsRecord", "expires_at"): lambda: _guard_alias(
        registered_at=T_SITES, expires_at=B
    ),
}

_SIMTIME = re.compile(r"\bSimTime\b")


def _time_fields() -> set[tuple[str, str]]:
    """Every field whose annotation mentions ``SimTime``, tuples included."""
    return {
        (cls.__name__, field.name)
        for cls in (Site, SiteState, OutageWindow, Page, DnsRecord)
        for field in dataclasses.fields(cls)
        if _SIMTIME.search(str(field.type))
    }


def test_every_time_field_has_a_guard_scenario():
    assert _time_fields() == set(GUARD_SCENARIOS), (
        "a time field of the web model has no freshness scenario: add one "
        "to GUARD_SCENARIOS and make the field feed the horizon"
    )


@pytest.mark.parametrize(
    "key", sorted(GUARD_SCENARIOS), ids=lambda key: ".".join(key)
)
def test_time_field_feeds_the_horizon(key):
    web, url = GUARD_SCENARIOS[key]()
    before = web.fetch(url, BEFORE_B)
    assert before.fresh_until == B.days
    # The scenario really changes the answer at B.
    assert _answer(before) != _answer(web.fetch(url, B))


def _answer(result) -> tuple:
    """A fetch result without the bodies' per-request noise tokens."""
    return result.outcome, tuple(
        (hop.url, hop.status, hop.location, hop.body.rsplit(" ", 1)[0])
        for hop in result.chain
    )


# -- unstamped answers are fetched again --------------------------------------------

T1 = _d(2010, 2)
T2 = _d(2010, 3)
URL = "http://g.example/p.html"


def _stable_web() -> LiveWeb:
    web, _ = _guard_site()
    return web


def _capture_twice(fetcher: Fetcher) -> tuple:
    crawler = ArchiveCrawler(fetcher, SnapshotStore(), honor_robots=False)
    first = crawler.capture(URL, T1)
    second = crawler.capture(URL, T2)
    return first, second


def test_stable_interval_is_reused_over_the_plain_web():
    web = _stable_web()
    assert web.fetch(URL, T1).fresh_until == math.inf
    fetcher = web.fetcher()
    first, second = _capture_twice(fetcher)
    assert fetcher.fetch_count == 1
    assert first.sketch == second.sketch and second.captured_at == T2


def _faulty(wrap: str, spec: FaultSpec) -> tuple[Fetcher, object]:
    """A fetcher over the stable web with one faulty wrapper."""
    web = _stable_web()
    if wrap == "origin":
        faulty = FaultyOrigin(web, FaultPlan(seed=3, connect_timeout=spec))
        return Fetcher(web.dns, faulty), faulty
    faulty = FaultyDns(web.dns, FaultPlan(seed=3, dns_servfail=spec))
    return Fetcher(faulty, web), faulty


@pytest.mark.parametrize("wrap", ["origin", "dns"])
def test_faulty_wrappers_are_refetched(wrap):
    # Every key faults on its first attempt only.
    fetcher, faulty = _faulty(wrap, FaultSpec(rate=1.0, max_repeats=1))
    first, second = _capture_twice(fetcher)
    assert fetcher.fetch_count == 2
    assert faulty.channel.injected == 1
    # The plan faults the first attempt and clears the second.
    assert first is None
    assert second is not None and second.initial_status == 200


@pytest.mark.parametrize("wrap", ["origin", "dns"])
def test_permanent_faults_show_on_every_capture(wrap):
    fetcher, faulty = _faulty(wrap, FaultSpec(rate=1.0, permanent=True))
    assert _capture_twice(fetcher) == (None, None)
    assert fetcher.fetch_count == 2
    assert faulty.channel.injected == 2


def test_faulty_origin_drops_the_inner_stamp():
    web = _stable_web()
    quiet = FaultyOrigin(web, FaultPlan(seed=3))
    fetcher = Fetcher(web.dns, quiet)
    assert fetcher.fetch(URL, T1).fresh_until == T1.days
    first, second = _capture_twice(fetcher)
    assert fetcher.fetch_count == 3
    assert first.initial_status == second.initial_status == 200


def test_faulty_origin_drops_a_timeout_stamp():
    web, _ = _guard_state(geo=GeoPolicy.BLOCKED_TIMEOUT)
    assert web.fetch(URL, T1).fresh_until == math.inf
    fetcher = Fetcher(web.dns, FaultyOrigin(web, FaultPlan(seed=3)))
    assert _capture_twice(fetcher) == (None, None)
    assert fetcher.fetch_count == 2


class _ChangingOrigin:
    """A scripted origin whose answer changes on every call, unstamped."""

    def __init__(self) -> None:
        self.calls = 0

    def handle(self, address, request, at):
        self.calls += 1
        status = 200 if self.calls == 1 else 404
        return HttpResponse(url=str(request.url), status=status, body="x y")


def test_unstamped_fake_origin_is_refetched():
    dns = DnsTable()
    dns.register(DnsRecord("g.example", "fake", T_SITES))
    origin = _ChangingOrigin()
    first, second = _capture_twice(Fetcher(dns, origin))
    assert origin.calls == 2
    assert first.initial_status == 200
    assert second.initial_status == 404


class _CountingFetcher:
    """A fetcher stand-in whose results carry no freshness stamp."""

    def __init__(self) -> None:
        self.calls = 0

    def fetch(self, url, at):
        self.calls += 1
        hop = HttpResponse(url=str(url), status=200, body="x y")
        return FetchResult(url=str(url), outcome=Outcome.HTTP_200, chain=(hop,))


def test_unstamped_fetch_result_is_refetched():
    fetcher = _CountingFetcher()
    first, second = _capture_twice(fetcher)
    assert fetcher.calls == 2
    assert first.initial_status == second.initial_status == 200


# -- robots answers reuse freshness --------------------------------------------------

PRIVATE = RobotsRules(disallow=("/private",))


class _RobotsCounter:
    """Counts the robots.txt fetches of the fetcher it wraps."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.robots = 0

    def fetch(self, url, at):
        if str(url).endswith("/robots.txt"):
            self.robots += 1
        return self._inner.fetch(url, at)


def _robots_site(hostname: str, **kwargs) -> Site:
    return _site(
        hostname, _alive("/a.html"), _alive("/private/b.html"),
        robots=PRIVATE, **kwargs,
    )


def _robots_web() -> LiveWeb:
    """Robots answers that change at every kind of site boundary."""
    web = LiveWeb()
    web.add_site(_robots_site("stable.example"))
    lapsing = _robots_site("lapse.example", dns_dies_at=_d(2010))
    web.add_site(lapsing)
    web.add_parked_successor(
        lapsing,
        Site(
            hostname="lapse.example",
            seed="squatter",
            created_at=_d(2011),
            robots=PRIVATE,
            state=SiteState(parked_from=_d(2013)),
        ),
    )
    web.add_site(
        _robots_site(
            "outage.example",
            state=SiteState(outages=(OutageWindow(_d(2009, 3), _d(2011, 6)),)),
        )
    )
    web.add_site(
        _robots_site(
            "geo403.example",
            state=SiteState(geo=GeoPolicy.BLOCKED_403, geo_from=_d(2012)),
        )
    )
    web.add_site(
        _robots_site(
            "geotimeout.example",
            state=SiteState(geo=GeoPolicy.BLOCKED_TIMEOUT, geo_from=_d(2014)),
        )
    )
    web.add_site(
        _robots_site("flaky.example", state=SiteState(timeout_probability=0.5))
    )
    return web


#: Hosts whose robots answer changes; the flaky and stable sites are
#: also captured under a second spelling of the same ``host_lower``.
ROBOTS_BOUNDARY_HOSTS = (
    "lapse.example", "outage.example", "geo403.example",
    "geotimeout.example", "flaky.example", "Flaky.Example",
)
ROBOTS_URLS = tuple(
    f"http://{host}{path}"
    for host in (*ROBOTS_BOUNDARY_HOSTS, "stable.example", "STABLE.example")
    for path in ("/a.html", "/private/b.html")
)


def _robots_times() -> list[SimTime]:
    """Every 29 days over 14 years: many refreshes, at shifting phases."""
    return [_d(2006).plus_days(29.0 * step) for step in range(177)]


def test_robots_reuse_equals_a_fetch_at_every_refresh():
    web = _robots_web()
    reuse_fetcher = _RobotsCounter(web.fetcher())
    reuse = ArchiveCrawler(reuse_fetcher, SnapshotStore())
    # An unstamped origin: every refresh fetches robots.txt again.
    fresh_fetcher = _RobotsCounter(
        Fetcher(web.dns, FaultyOrigin(web, FaultPlan(seed=3)))
    )
    fresh = ArchiveCrawler(fresh_fetcher, SnapshotStore())
    allowed: dict[str, set[bool]] = {url: set() for url in ROBOTS_URLS}
    for at in _robots_times():
        for url in ROBOTS_URLS:
            denied = fresh.robots_denied
            expected = fresh.capture(url, at)
            assert reuse.capture(url, at) == expected, (url, at)
            assert reuse.robots_denied == fresh.robots_denied, (url, at)
            allowed[url].add(fresh.robots_denied == denied)
    assert reuse.capture_attempts == fresh.capture_attempts
    # Every boundary flipped some refresh's decision for a private path.
    for host in ROBOTS_BOUNDARY_HOSTS:
        assert allowed[f"http://{host}/private/b.html"] == {True, False}, host
    assert allowed["http://stable.example/private/b.html"] == {False}
    # Six hosts, each refreshed every 13th instant (377 days): 14
    # refreshes apiece, and most of them answered without a fetch.
    assert fresh_fetcher.robots == 6 * 14
    assert reuse_fetcher.robots < fresh_fetcher.robots // 2


class _SpellingOrigin:
    """Robots answers that differ by the URL as written and never change."""

    RULES = {
        "http://mixed.example/robots.txt": PRIVATE,
        "http://MIXED.example/robots.txt": RobotsRules(),
        "https://mixed.example/robots.txt": RobotsRules(),
    }

    def __init__(self, stamped: bool) -> None:
        self._until = math.inf if stamped else None

    def handle(self, address, request, at):
        url = str(request.url)
        rules = self.RULES.get(url)
        body = "x y" if rules is None else rules.render()
        return HttpResponse(url=url, status=200, body=body, fresh_until=self._until)


@pytest.mark.parametrize("stamped", [True, False])
def test_robots_reuse_is_keyed_by_the_url_as_written(stamped):
    dns = DnsTable()
    dns.register(DnsRecord("mixed.example", "scripted", T_SITES))
    fetcher = _RobotsCounter(Fetcher(dns, _SpellingOrigin(stamped)))
    crawler = ArchiveCrawler(fetcher, SnapshotStore())
    step = ROBOTS_CACHE_DAYS + 1.0
    decisions = []
    for index, base in enumerate((
        "http://mixed.example",
        "http://MIXED.example",
        "http://mixed.example",
        "https://mixed.example",
        "http://MIXED.example",
    )):
        denied = crawler.robots_denied
        crawler.capture(f"{base}/private/x.html", T1.plus_days(step * index))
        decisions.append(crawler.robots_denied == denied)
    assert decisions == [False, True, False, True, True]
    # Every capture refreshed the host's entry; a stamped answer is
    # reused for its own URL only, an unstamped one never.
    assert fetcher.robots == (3 if stamped else 5)


class _RobotsFlipFetcher:
    """A fetcher stand-in whose robots answer changes on every fetch and
    carries no freshness stamp."""

    def __init__(self) -> None:
        self.robots = 0

    def fetch(self, url, at):
        url = str(url)
        body = "x y"
        if url.endswith("/robots.txt"):
            self.robots += 1
            body = (PRIVATE if self.robots % 2 else RobotsRules()).render()
        hop = HttpResponse(url=url, status=200, body=body)
        return FetchResult(url=url, outcome=Outcome.HTTP_200, chain=(hop,))


def test_unstamped_robots_result_is_refetched():
    fetcher = _RobotsFlipFetcher()
    crawler = ArchiveCrawler(fetcher, SnapshotStore())
    step = ROBOTS_CACHE_DAYS + 1.0
    for index in range(4):
        at = T1.plus_days(step * index)
        crawler.capture("http://g.example/private/x.html", at)
    assert fetcher.robots == 4
    assert crawler.robots_denied == 2
