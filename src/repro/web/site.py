"""A website: directory tree of pages plus server behaviour.

The site answers GETs at a given simulated instant. Whole-site state
(parked, geo-blocked, outage, flakiness) is checked first, then the
page lifecycle, then the missing-page policy.

Timeout draws are hash-based on (site seed, URL, day) rather than
consuming a shared RNG, so a given probe is reproducible regardless of
how many other requests the simulation has served — and, as on the
real web, retrying the same flaky URL on a different day can succeed.

Every answer carries a freshness horizon (``fresh_until``): the first
instant after the request at which the answer for that path can
differ, apart from the body's per-request noise token. It is the
earliest of the site's state instants (``parked_from``, ``geo_from``,
outage starts and ends), the matched page's lifecycle instants, the
next ``policy_changes`` instant when the missing-page policy shapes
the answer, and, on a flaky site, the next integer day, when the
timeout draw changes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..clock import SimTime, first_after
from ..errors import ConnectionTimeout, NetworkSimError
from ..net.http import HttpRequest, HttpResponse
from ..textsim.content import ContentGenerator, PageText
from ..urls.parse import QueryArgs
from .behaviors import GeoPolicy, MissingPagePolicy, SiteState
from .page import Page, PageStatus
from .robots import RobotsRules

LOGIN_PATH = "/login"
ROBOTS_PATH = "/robots.txt"


def _canonical_path_query(path_query: str) -> str:
    """Order-insensitive form of a path+query.

    Web servers resolve ``?a=1&b=2`` and ``?b=2&a=1`` to the same
    resource; pages are therefore indexed under a canonical (sorted)
    query as well as their exact string. This is what makes the §5.2
    reordered-parameter recovery meaningful.
    """
    if "?" not in path_query:
        return path_query
    path, query = path_query.split("?", 1)
    pairs = QueryArgs.parse(query).canonical()
    return path + "?" + "&".join(f"{k}={v}" for k, v in pairs)


def _hash_unit(seed: str) -> float:
    """A uniform [0, 1) draw derived purely from ``seed``."""
    digest = hashlib.sha256(seed.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass
class Site:
    """One simulated website.

    Attributes:
        hostname: the site's canonical hostname.
        seed: deterministic seed for content and flakiness draws.
        scheme: canonical scheme for self-referential redirect targets.
        ranking: Alexa-style global rank (1 = most popular).
        created_at: when the site came online.
        dns_dies_at: when its DNS registration lapses (None = never);
            enforced by the DNS table, recorded here for generators.
        missing_policy: behaviour for unknown/dead paths at site birth.
        policy_changes: later missing-policy phases, as (from, policy)
            pairs in time order — sites redesign, move to new CMSes,
            and change how dead URLs answer, which is how a link can be
            an honest 404 when IABot checks it and a soft-404 by the
            time the study probes it.
        offsite_redirect_target: absolute URL used by REDIRECT_OFFSITE.
        state: whole-site conditions.
    """

    hostname: str
    seed: str
    scheme: str = "http"
    ranking: int = 500_000
    created_at: SimTime = field(default_factory=lambda: SimTime(0.0))
    dns_dies_at: SimTime | None = None
    missing_policy: MissingPagePolicy = MissingPagePolicy.HARD_404
    policy_changes: tuple[tuple[SimTime, MissingPagePolicy], ...] = ()
    offsite_redirect_target: str | None = None
    robots: RobotsRules = field(default_factory=RobotsRules)
    state: SiteState = field(default_factory=SiteState)
    _pages: dict[str, Page] = field(default_factory=dict)
    _canonical_pages: dict[str, Page] = field(default_factory=dict)

    def __post_init__(self) -> None:
        policies = [self.missing_policy] + [p for _, p in self.policy_changes]
        if (
            MissingPagePolicy.REDIRECT_OFFSITE in policies
            and not self.offsite_redirect_target
        ):
            raise ValueError("REDIRECT_OFFSITE requires offsite_redirect_target")
        for earlier, later in zip(self.policy_changes, self.policy_changes[1:]):
            if not earlier[0] < later[0]:
                raise ValueError("policy_changes must be in time order")
        self._content = ContentGenerator(self.seed)

    def missing_policy_at(self, at: SimTime) -> MissingPagePolicy:
        """The missing-page policy in force at instant ``at``."""
        policy = self.missing_policy
        days = at.days
        for change_at, changed in self.policy_changes:
            if days < change_at.days:
                break
            policy = changed
        return policy

    # -- page management ---------------------------------------------------------

    def add_page(self, page: Page) -> None:
        """Register a page; duplicate paths are a generator bug."""
        if page.path_query in self._pages:
            raise ValueError(
                f"duplicate page {page.path_query!r} on {self.hostname}"
            )
        self._pages[page.path_query] = page
        self._canonical_pages[_canonical_path_query(page.path_query)] = page

    def page(self, path_query: str) -> Page | None:
        """The page at ``path_query``, if one was ever defined."""
        return self._pages.get(path_query)

    def pages(self) -> tuple[Page, ...]:
        """All defined pages, in insertion order."""
        return tuple(self._pages.values())

    @property
    def root_url(self) -> str:
        """The site homepage URL."""
        return f"{self.scheme}://{self.hostname}/"

    @property
    def login_url(self) -> str:
        """The site's login page URL."""
        return f"{self.scheme}://{self.hostname}{LOGIN_PATH}"

    def url_for(self, path_query: str) -> str:
        """Absolute URL for a path on this site."""
        return f"{self.scheme}://{self.hostname}{path_query}"

    # -- request handling -----------------------------------------------------------

    def respond(
        self, request: HttpRequest, at: SimTime, address: str
    ) -> HttpResponse:
        """Answer a GET at instant ``at`` to the site's DNS ``address``.

        Raises :class:`~repro.errors.ConnectionTimeout` for flaky or
        silently geo-blocked conditions; returns an
        :class:`~repro.net.http.HttpResponse` otherwise. Both carry the
        answer's freshness horizon as ``fresh_until``. A page body is
        a :class:`~repro.textsim.content.PageText`, whose noise token
        derives from ``(address, url, day)``.
        """
        target = request.url
        url = str(target)
        state = self.state
        until = state.next_change(at)

        def reply(
            status: int, body: str = "", location: str | None = None
        ) -> HttpResponse:
            return HttpResponse(
                url=url,
                status=status,
                body=body,
                location=location,
                fresh_until=until,
            )

        def generated(kind: str, path: str = "") -> PageText:
            return PageText(self._content, kind, path, address, url, int(at.days))

        if state.geo_active_at(at):
            if state.geo is GeoPolicy.BLOCKED_TIMEOUT:
                raise ConnectionTimeout(self.hostname, fresh_until=until)
            return reply(403, "access denied")

        if state.parked_at(at):
            return reply(200, generated("parked"))

        if state.outage_at(at):
            return reply(503, "service unavailable")

        if state.timeout_probability > 0.0:
            draw = _hash_unit(f"{self.seed}:timeout:{url}:{int(at.days)}")
            if draw < state.timeout_probability:
                raise ConnectionTimeout(self.hostname, fresh_until=until)

        path = target.path
        query = target.query
        if path == "/" and not query:
            return reply(200, generated("homepage"))
        if path == ROBOTS_PATH:
            return reply(200, self.robots.render())
        if path == LOGIN_PATH:
            return reply(200, generated("login"))

        path_query = f"{path}?{query}" if query else path
        page = self._pages.get(path_query)
        if page is None and query:
            # Servers resolve reordered query parameters identically.
            page = self._canonical_pages.get(_canonical_path_query(path_query))
        if page is not None:
            until = min(until, page.next_change(at))
            status = page.status_at(at)
            if status is PageStatus.SERVES:
                # Content keyed by the page's canonical path, so every
                # parameter ordering serves identical bytes.
                return reply(200, generated("article", page.path_query))
            if status is PageStatus.REDIRECTS:
                # A MOVED page always has moved_to (Page.__post_init__).
                return reply(301, location=page.moved_to)

        # From here on the answer comes from the missing-page policy.
        policy_days = first_after(at, (t for t, _ in self.policy_changes))
        until = min(until, policy_days)
        policy = self.missing_policy_at(at)
        if policy is MissingPagePolicy.HARD_404:
            return reply(404, generated("errpage"))
        if policy is MissingPagePolicy.SOFT_404:
            return reply(200, generated("errpage"))
        if policy is MissingPagePolicy.REDIRECT_HOME:
            return reply(302, location=self.root_url)
        if policy is MissingPagePolicy.REDIRECT_LOGIN:
            return reply(302, location=self.login_url)
        if policy is MissingPagePolicy.REDIRECT_OFFSITE:
            return reply(302, location=self.offsite_redirect_target)
        raise NetworkSimError(
            f"{self.hostname}: unknown missing-page policy {policy!r}"
        )
