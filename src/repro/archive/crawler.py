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

from ..clock import SimTime, EVENTSTREAM_START, WNRT_START
from ..errors import UrlError
from ..net.fetch import Fetcher, FetchResult
from ..rng import Stream
from ..urls.parse import ParsedUrl, QueryArgs, UrlMemo, parse_url
from ..web.robots import RobotsRules, parse_robots
from .snapshot import PendingSketch, Snapshot
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
            parsed = parse_url(url)
        except UrlError:
            return False
        if len(parsed.query) > self.max_query_length:
            return False
        return len(QueryArgs.parse(parsed.query)) <= self.max_query_params


class BodySketcher:
    """MinHash sketching with a core-body cache.

    Bodies in the simulated web are a stable core plus one trailing
    per-request noise token; sketching the body minus its final token
    and caching on that stem makes repeated captures of the same page
    O(1) after the first. The lost token perturbs the true sketch
    negligibly (4 shingles out of hundreds).

    :meth:`pending` gives every body of one stem the same
    :class:`~repro.archive.snapshot.PendingSketch`, so MinHash runs
    only when some reader first asks for a sketch of that stem;
    :meth:`sketch` resolves it at once. ``misses`` counts distinct
    stems either way.

    A stem is several kilobytes, so slicing and hashing it on every
    capture would cost more than the rest of the lookup. Known stems
    are therefore also indexed by a fingerprint (stem length and its
    last :data:`FINGERPRINT_CHARS` characters); a fingerprint hit is
    confirmed by comparing the stored stem with the body's prefix, so
    the answer and ``misses`` are exactly those of a lookup by stem.

    Sketching runs on whichever numeric backend
    :mod:`repro.numerics` selected — the numpy kernels when the
    ``repro[numpy]`` extra is installed, value-identical pure-stdlib
    kernels otherwise — so crawling works in a clean install
    (``tests/test_install_smoke.py`` pins this).
    """

    FINGERPRINT_CHARS = 32

    def __init__(self) -> None:
        self._cache: dict[str, PendingSketch] = {}
        #: ``(len(stem), stem tail) -> pending sketch`` for every stem.
        self._stems: dict[tuple[int, str], PendingSketch] = {}
        self.misses = 0

    def pending(self, body: str) -> PendingSketch:
        """The shared pending sketch of ``body``'s stable stem."""
        cut = body.rfind(" ")
        if cut < 0:
            stem = body
        else:
            key = (cut, body[max(0, cut - self.FINGERPRINT_CHARS): cut])
            known = self._stems.get(key)
            if known is not None and body.startswith(known.stem):
                return known
            stem = body[:cut]
        cached = self._cache.get(stem)
        if cached is None:
            self.misses += 1
            cached = self._cache[stem] = PendingSketch(stem)
        if cut >= 0:
            self._stems[key] = cached
        return cached

    def sketch(self, body: str) -> tuple[int, ...]:
        """MinHash sketch of ``body`` (cached on its stable stem)."""
        return self.pending(body).resolve()


#: How long a fetched robots.txt stays cached before re-checking.
ROBOTS_CACHE_DAYS = 365.0


#: What a capture records of one fetch: ``(initial_status,
#: redirect_location, final_status, final_url, sketch)``, or ``None``
#: when the fetch failed at the transport level.
Observation = tuple[int, str | None, int, str, PendingSketch] | None


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
    window records the stored observation instead of fetching; the
    robots check, the counters, snapshot validation and the store
    still run on every capture. Both memos hold one entry per URL the
    crawler has fetched, for the crawler's lifetime, which is why the
    web must not change once crawling starts: horizons describe the
    web as it was when they were stamped.
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
        #: ``url -> (observed_at, fresh_until, observation)`` in days.
        self._observed: dict[str, tuple[float, float, Observation]] = {}
        self._urls = UrlMemo()
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
        self.capture_attempts += 1
        try:
            target = self._urls.parse(url)
        except UrlError:
            target = None
        if self._honor_robots and (
            target is None or not self._robots_allow_parsed(target, at)
        ):
            self.robots_denied += 1
            return None
        days = at.days
        last = self._observed.get(url)
        if last is not None and last[0] <= days < last[1]:
            observation = last[2]
        else:
            result = self._fetcher.fetch(url if target is None else target, at)
            observation = self._observe(result)
            until = result.fresh_until
            self._observed[url] = (
                days, days if until is None else until, observation
            )
        if observation is None:
            self.capture_failures += 1
            return None
        initial_status, location, final_status, final_url, sketch = observation
        snapshot = Snapshot(
            url=url,
            captured_at=at,
            initial_status=initial_status,
            redirect_location=location,
            final_status=final_status,
            final_url=final_url,
            sketch=sketch,
        )
        self._store.add(snapshot)
        return snapshot

    def _observe(self, result: FetchResult) -> Observation:
        """What a capture records of ``result``."""
        chain = result.chain
        if not chain:
            return None
        initial = chain[0]
        final = chain[-1]
        return (
            initial.status,
            initial.location if initial.is_redirect else None,
            final.status,
            final.url,
            self._sketcher.pending(final.body),
        )

    def robots_allows(self, url: str, at: SimTime) -> bool:
        """Public robots check (used by Save Page Now before queueing)."""
        return self._robots_allow(url, at)

    def _robots_allow(self, url: str, at: SimTime) -> bool:
        """Consult the host's (cached) robots.txt for ``url``."""
        try:
            parsed = self._urls.parse(url)
        except UrlError:
            return False
        return self._robots_allow_parsed(parsed, at)

    def _robots_allow_parsed(self, parsed: ParsedUrl, at: SimTime) -> bool:
        path = parsed.path
        if path == "/robots.txt":
            return True
        host = parsed.host_lower
        days = at.days
        cached = self._robots_cache.get(host)
        if cached is None or days - cached[0] > ROBOTS_CACHE_DAYS:
            # Keyed by the URL as written: a flaky site's timeout draw
            # hashes it, so two spellings of a host may answer apart.
            robots_url = f"{parsed.scheme}://{parsed.hostname}/robots.txt"
            fetched = self._robots_fetched.get(robots_url)
            if fetched is not None and fetched[0] <= days < fetched[1]:
                rules = fetched[2]
            else:
                result = self._fetcher.fetch(robots_url, at)
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
        return cached[1].allows(path)


@dataclass(frozen=True, slots=True)
class OrganicCrawlPlanner:
    """Poisson revisit schedules for organically crawled URLs.

    ``rate_per_year`` arrivals per year on average, starting at
    ``available_from`` (when the archive first learned the URL exists)
    and ending at ``horizon``.
    """

    horizon: SimTime

    def plan(
        self,
        available_from: SimTime,
        rate_per_year: float,
        rng: Stream,
    ) -> list[SimTime]:
        """Capture instants for one URL."""
        return [
            SimTime(days)
            for days in self.plan_days(available_from, rate_per_year, rng)
        ]

    def plan_days(
        self,
        available_from: SimTime,
        rate_per_year: float,
        rng: Stream,
    ) -> list[float]:
        """:meth:`plan`'s instants as day numbers (``SimTime.days``)."""
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


def default_trigger_eras(horizon: SimTime) -> tuple[TriggerEra, ...]:
    """The WNRT (2013-2018) and EventStream (2018-) eras.

    Coverage values are calibration constants chosen so that ~7% of
    dataset links end up captured the day they were posted (§5.1),
    given the paper's posting-date distribution.
    """
    return (
        TriggerEra(
            start=WNRT_START,
            end=EVENTSTREAM_START,
            coverage=0.12,
            delay_median_days=1.5,
            delay_sigma=0.8,
        ),
        TriggerEra(
            start=EVENTSTREAM_START,
            end=horizon,
            coverage=0.22,
            delay_median_days=0.4,
            delay_sigma=0.7,
        ),
    )


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
