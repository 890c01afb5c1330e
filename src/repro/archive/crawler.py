"""Crawl processes that populate the archive.

Two processes capture URLs, mirroring how the Internet Archive
actually discovers Wikipedia's external links (§5.1):

- **organic crawling** (:class:`OrganicCrawlPlanner`): every site is
  revisited at a popularity-dependent Poisson rate, so an unpopular
  site's pages may go years between captures — the engine behind the
  long tail of Figure 5;
- **event-triggered archiving** (:class:`TriggeredArchiver`): from 2013
  the Wikipedia Near Real Time service, and from 2018 the Wikipedia
  EventStream, fed newly-posted links to the archive. Coverage was far
  from complete (only ~7% of the paper's links were captured the day
  they were posted), so each era has a coverage probability and a
  short capture delay.

:class:`ArchiveCrawler` executes a capture: it fetches the URL through
the simulated web and records what it saw — including 404s and
redirects, which the real Wayback Machine also stores. While the web's
last answer for a URL is still fresh (see
:attr:`~repro.net.fetch.FetchResult.fresh_until`), the crawler records
that answer again instead of fetching.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..clock import SimTime
from ..errors import UrlError
from ..net.fetch import Fetcher, FetchResult
from ..rng import Stream
from ..textsim.content import PageCore, PageText
from ..urls.parse import ParsedUrl, QueryArgs, intern_url
from ..web.robots import RobotsRules, parse_robots
from .snapshot import Observation, PendingSketch, Snapshot, check_observation
from .store import SnapshotStore


@dataclass(frozen=True, slots=True)
class CrawlPolicy:
    """Which URLs the archive's crawl frontier accepts.

    Web-scale crawlers deprioritise URLs with many query parameters —
    "the number of feasible values for some of the query parameters is
    practically unbounded" (§5.2) — which is the paper's first
    explanation for never-archived URLs. URLs rejected here are
    captured neither organically nor via the event feeds.
    """

    max_query_params: int = 2
    max_query_length: int = 48

    def crawlable(self, url: str) -> bool:
        """Whether the frontier accepts ``url``."""
        try:
            parsed = intern_url(url)
        except UrlError:
            return False
        if len(parsed.query) > self.max_query_length:
            return False
        return len(QueryArgs.parse(parsed.query)) <= self.max_query_params


class BodySketcher:
    """MinHash sketching with a per-stem cache.

    Bodies in the simulated web are a stable core plus one trailing
    per-request noise token; sketching the body minus its final token
    and caching on that stem makes repeated captures of the same page
    O(1) after the first. The lost token perturbs the true sketch
    negligibly (4 shingles out of hundreds).

    A generated page's stem is keyed by its identity
    (:attr:`~repro.textsim.content.PageText.core`), which nothing has
    to render; a literal body's by its text before the last space.
    Both name the same text, so sketches and ``misses`` (distinct
    stems) equal those of a lookup by stem text.

    :meth:`pending` gives every body of one stem the same
    :class:`~repro.archive.snapshot.PendingSketch`, so MinHash runs
    only when some reader first asks for a sketch of that stem;
    :meth:`sketch` resolves it at once.

    :func:`~repro.textsim.shingles.minhash_sketch` has a pure-Python
    path with identical sketches, so crawling works in a clean install
    without extras (``tests/test_install_smoke.py`` pins this).
    """

    def __init__(self) -> None:
        self._cache: dict[str | PageCore, PendingSketch] = {}
        self.misses = 0

    def pending(self, body: str | PageText) -> PendingSketch:
        """The shared pending sketch of ``body``'s stable stem."""
        if type(body) is str:
            cut = body.rfind(" ")
            key = body if cut < 0 else body[:cut]
        else:
            key = body.core
        cached = self._cache.get(key)
        if cached is None:
            self.misses += 1
            cached = self._cache[key] = PendingSketch(key)
        return cached

    def sketch(self, body: str | PageText) -> tuple[int, ...]:
        """MinHash sketch of ``body`` (cached on its stable stem)."""
        return self.pending(body).resolve()


#: How long a fetched robots.txt stays cached before re-checking.
ROBOTS_CACHE_DAYS = 365.0


class _Seen:
    """The crawler's memo of one URL: its last fetch and robots check."""

    __slots__ = ("observed_at", "fresh_until", "observation", "host", "rules")

    def __init__(
        self,
        observed_at: float,
        fresh_until: float,
        observation: Observation | None,
        host: str,
        rules: RobotsRules | None,
    ) -> None:
        #: ``[observed_at, fresh_until)``: days over which the web is
        #: sure to answer the last fetch's ``observation`` again
        #: (``None`` when that fetch failed at the transport level).
        self.observed_at = observed_at
        self.fresh_until = fresh_until
        self.observation = observation
        self.host = host
        #: The robots rules that last allowed this URL; ``None`` when
        #: its last check read none.
        self.rules = rules


class ArchiveCrawler:
    """Fetch-and-record: the archive's capture executor.

    Honours robots.txt: before capturing a URL, the crawler fetches
    (and caches) the host's ``/robots.txt`` and skips disallowed paths
    — one of the real-world reasons a URL can be "never archived"
    while its site is otherwise covered. A host's entry is refreshed
    :data:`ROBOTS_CACHE_DAYS` after it was cached; a refresh inside the
    freshness window of the last fetch of the same robots URL reuses
    that fetch's rules instead of fetching again.

    Keeps, per URL, its last observation and the window
    ``[observed_at, fresh_until)`` over which the web is sure to answer
    the same (the fetch's freshness horizon). A capture inside that
    window records the stored observation instead of fetching. While
    the host's unexpired robots entry also holds the rules that last
    allowed the URL, the robots verdict is reused too, so such a
    capture costs two dictionary lookups and
    :meth:`SnapshotStore.record <repro.archive.store.SnapshotStore.record>`.
    An observation is validated once, when its fetch returns, and the
    store keeps a reference to it for every capture it covers. The
    memo holds one entry per URL the crawler has fetched, for the
    crawler's lifetime, which is why the web must not change once
    crawling starts: horizons describe the web as it was when they
    were stamped.
    """

    def __init__(
        self,
        fetcher: Fetcher,
        store: SnapshotStore,
        honor_robots: bool = True,
    ) -> None:
        self._fetcher = fetcher
        self._store = store
        self._sketcher = BodySketcher()
        self._honor_robots = honor_robots
        #: ``host_lower -> (cached_at, rules)``, refreshed after
        #: :data:`ROBOTS_CACHE_DAYS`.
        self._robots_cache: dict[str, tuple[float, RobotsRules]] = {}
        #: ``robots URL -> (fetched_at, fresh_until, rules)`` in days.
        self._robots_fetched: dict[str, tuple[float, float, RobotsRules]] = {}
        #: ``url -> what the crawler last saw of it``.
        self._observed: dict[str, _Seen] = {}
        self.capture_attempts = 0
        self.capture_failures = 0
        self.robots_denied = 0

    def capture(self, url: str, at: SimTime) -> Snapshot | None:
        """Attempt to archive ``url`` at instant ``at``.

        Returns the stored snapshot, or ``None`` when robots.txt
        forbids the path or the fetch failed at the transport level
        (DNS failure / connect timeout) — such attempts leave no trace
        in the archive, exactly like the real Wayback Machine.
        """
        observation = self.capture_at(url, at.days)
        if observation is None:
            return None
        return Snapshot(url, at, *observation)

    def capture_at(self, url: str, days: float) -> Observation | None:
        """:meth:`capture` at day number ``days``.

        Returns what the stored capture observed, or ``None`` when
        nothing was stored.
        """
        self.capture_attempts += 1
        seen = self._observed.get(url)
        if (
            seen is not None
            and seen.observed_at <= days < seen.fresh_until
            and (
                not self._honor_robots
                or (rules := seen.rules) is not None
                and (cached := self._robots_cache[seen.host])[1] is rules
                and days - cached[0] <= ROBOTS_CACHE_DAYS
            )
        ):
            # The last answer is fresh and the robots verdict stands.
            observation = seen.observation
            if observation is None:
                self.capture_failures += 1
        else:
            observation = self._check_and_observe(url, days)
        if observation is not None:
            self._store.record(url, days, observation)
        return observation

    def _check_and_observe(self, url: str, days: float) -> Observation | None:
        """The robots check, then the freshness lookup, fetching when
        the last answer is stale; counts a denial or a failure."""
        try:
            target = intern_url(url)
        except UrlError:
            target = None
        rules = None
        if self._honor_robots:
            if target is not None:
                rules = self._robots_rules(target, days)
            if target is None or (
                rules is not None and not rules.allows(target.path)
            ):
                self.robots_denied += 1
                return None
        seen = self._observed.get(url)
        if seen is not None and seen.observed_at <= days < seen.fresh_until:
            seen.rules = rules
        else:
            result = self._fetcher.fetch(
                url if target is None else target, SimTime(days)
            )
            until = result.fresh_until
            seen = self._observed[url] = _Seen(
                days,
                days if until is None else until,
                self._observe(url, result),
                "" if target is None else target.host_lower,
                rules,
            )
        if seen.observation is None:
            self.capture_failures += 1
        return seen.observation

    def _observe(self, url: str, result: FetchResult) -> Observation | None:
        """What a capture of ``url`` records of ``result``."""
        chain = result.chain
        if not chain:
            return None
        initial = chain[0]
        final = chain[-1]
        location = initial.location if initial.is_redirect else None
        check_observation(url, initial.status, location)
        return (
            initial.status,
            location,
            final.status,
            final.url,
            self._sketcher.pending(final.content),
        )

    def robots_allows(self, url: str, at: SimTime) -> bool:
        """Public robots check (used by Save Page Now before queueing)."""
        try:
            parsed = intern_url(url)
        except UrlError:
            return False
        rules = self._robots_rules(parsed, at.days)
        return rules is None or rules.allows(parsed.path)

    def _robots_rules(self, parsed: ParsedUrl, days: float) -> RobotsRules | None:
        """The host's cached robots rules at ``days``, refreshing the
        entry when stale; ``None`` for robots.txt itself."""
        if parsed.path == "/robots.txt":
            return None
        host = parsed.host_lower
        cached = self._robots_cache.get(host)
        if cached is None or days - cached[0] > ROBOTS_CACHE_DAYS:
            # Keyed by the URL as written: a flaky site's timeout draw
            # hashes it, so two spellings of a host may answer apart.
            robots_url = f"{parsed.scheme}://{parsed.hostname}/robots.txt"
            fetched = self._robots_fetched.get(robots_url)
            if fetched is not None and fetched[0] <= days < fetched[1]:
                rules = fetched[2]
            else:
                result = self._fetcher.fetch(robots_url, SimTime(days))
                if result.final_status == 200:
                    rules = parse_robots(result.body)
                else:
                    # Unreachable or missing robots: everything allowed
                    # (the capture itself will fail if the host is gone).
                    rules = RobotsRules()
                until = result.fresh_until
                self._robots_fetched[robots_url] = (
                    days, days if until is None else until, rules
                )
            cached = self._robots_cache[host] = (days, rules)
        return cached[1]


@dataclass(frozen=True, slots=True)
class OrganicCrawlPlanner:
    """Poisson revisit schedules for organically crawled URLs.

    ``rate_per_year`` arrivals per year on average, starting at
    ``available_from`` (when the archive first learned the URL exists)
    and ending at ``horizon``.
    """

    horizon: SimTime

    def plan_days(
        self,
        available_from: SimTime,
        rate_per_year: float,
        rng: Stream,
    ) -> list[float]:
        """Capture instants for one URL, as day numbers (``SimTime.days``)."""
        if rate_per_year <= 0:
            return []
        days: list[float] = []
        rate = 1.0 / (365.2425 / rate_per_year)
        horizon = self.horizon.days
        cursor = available_from.days
        while True:
            cursor += rng.expovariate(rate)
            if cursor >= horizon:
                return days
            days.append(cursor)


@dataclass(frozen=True, slots=True)
class TriggerEra:
    """One era of link-posted-event archiving."""

    start: SimTime
    end: SimTime
    coverage: float          # probability a posted link gets a capture
    delay_median_days: float  # median capture delay when covered
    delay_sigma: float = 1.0  # log-normal spread of the delay

    def __post_init__(self) -> None:
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError("coverage must be in [0, 1]")
        if not self.start < self.end:
            raise ValueError("era must have start < end")

    def covers(self, at: SimTime) -> bool:
        """Whether this era is active at instant ``at``."""
        return not at < self.start and at < self.end


class TriggeredArchiver:
    """Decides whether (and when) a newly-posted link gets captured."""

    def __init__(self, eras: tuple[TriggerEra, ...], rng: Stream) -> None:
        self._eras = eras
        self._rng = rng

    def capture_time_for(self, posted_at: SimTime) -> SimTime | None:
        """Capture instant for a link posted at ``posted_at``, or None.

        ``None`` means the event feed did not exist yet, or the feed
        missed this link — it will only be archived organically, if at
        all.
        """
        for era in self._eras:
            if era.covers(posted_at):
                if not self._rng.chance(era.coverage):
                    return None
                delay = self._rng.lognormal_days(
                    era.delay_median_days, era.delay_sigma
                )
                return posted_at.plus_days(delay)
        return None
