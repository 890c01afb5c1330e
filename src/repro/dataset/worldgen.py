"""World generation: plan → build → crawl → replay.

:func:`generate_world` produces a complete, self-consistent universe:

1. **plan** — sites, link dispositions, posting dates
   (:mod:`repro.dataset.planner`);
2. **build** — the live web with page lifecycles and the archive's
   organic crawl seeds (:mod:`repro.dataset.builder`);
3. **crawl** — every organic, profile-scheduled and event-triggered
   capture attempt, in time order, into the archive;
4. **replay** — every wiki event in strict time order: human edits post
   links to articles, occasional humans annotate dead links, and
   InternetArchiveBot sweeps the wiki, patching what it can and
   marking the rest permanently dead.

Nothing observes the future: a sweep reads the archive only as it stood
at the sweep's instant (captures at that instant included), so a 2016
bot sweep sees only the snapshots captured by 2016, which is what makes
the paper's §4.1 "copies existed before marking" analysis measurable
rather than baked in. Captures read nothing but the web, and the store
keeps each URL's captures sorted by time, so an as-of read is a cut of
the finished archive and the whole crawl can run before the first
event.
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple

from ..archive.availability import AvailabilityApi, AvailabilityPolicy
from ..archive.cdx import CdxApi
from ..archive.crawler import (
    ArchiveCrawler,
    CrawlPolicy,
    OrganicCrawlPlanner,
    TriggeredArchiver,
    TriggerEra,
)
from ..archive.store import SnapshotStore
from ..clock import EVENTSTREAM_START, STUDY_TIME, SimTime, WNRT_START
from ..errors import WorldGenError
from ..iabot.archive_client import IABotArchiveClient
from ..iabot.bot import InternetArchiveBot, SweepShards
from ..iabot.checker import LinkChecker
from ..iabot.config import IABotConfig
from ..net.fetch import Fetcher
from ..rng import RngRegistry, Stream, derive_seed
from ..web.world import LiveWeb
from ..wiki.encyclopedia import Encyclopedia
from ..wiki.templates import cite_web, dead_link
from ..wiki.wikitext import LinkRef
from .builder import BuiltWeb, TruthRecord, WebBuilder
from .planner import LinkPlan, SiteKind, plan_universe

_TITLE_WORDS = (
    "Aldermoor", "Brindle", "Carden", "Dunmore", "Eastvale", "Farlow",
    "Glenside", "Harwick", "Inverleith", "Jarrow", "Kelton", "Larkfield",
    "Merewood", "Norbury", "Oakhurst", "Penrith", "Quarrington", "Redcliffe",
    "Stanmere", "Thornden", "Ulverton", "Vexford", "Westbrook", "Yarmouth",
    "Abbey", "Bridge", "Castle", "District", "Election", "Festival",
    "Grange", "Harbour", "Island", "Junction", "Kirk", "Lane", "Manor",
    "Notch", "Orchard", "Parish", "Quarry", "River", "Station", "Tunnel",
    "Uprising", "Valley", "Ward", "Zephyr",
)


@dataclass(frozen=True)
class WorldConfig:
    """All calibration knobs for one synthetic universe.

    ``target_sample`` is the paper's 10,000-link sample, but the
    default world marks far fewer: in the committed 26,000-link,
    seed-11 transcript (``examples/full_run_output.txt``, line 1) IABot
    marks 3,636 links permanently dead, and the collector studies all
    of them. ROADMAP.md item 6 covers a run at the paper's scale.
    Tests use much smaller ``n_links``.
    """

    seed: int = 2022
    n_links: int = 26_000
    target_sample: int = 10_000
    study_time: SimTime = STUDY_TIME

    # -- link mixture -------------------------------------------------------
    stays_alive_frac: float = 0.26
    typo_frac: float = 0.045          # of dying links
    moved_redirect_later_frac: float = 0.052
    revived_frac: float = 0.0065
    moved_prompt_redirect_frac: float = 0.075
    query_deep_frac: float = 0.035
    isolated_directory_prob: float = 0.30

    # -- site mixture -------------------------------------------------------
    site_kind_weights: tuple[tuple[SiteKind, float], ...] = (
        (SiteKind.HARD404, 0.100),
        (SiteKind.REDIRECT_ERA, 0.360),
        (SiteKind.BECOMES_SOFT404, 0.045),
        (SiteKind.BECOMES_REDIRECT_HOME, 0.050),
        (SiteKind.BECOMES_REDIRECT_LOGIN, 0.012),
        (SiteKind.BECOMES_OFFSITE, 0.010),
        (SiteKind.ABANDONED, 0.280),
        (SiteKind.ABANDONED_PARKED, 0.025),
        (SiteKind.FLAKY, 0.022),
        (SiteKind.GEO_403, 0.022),
        (SiteKind.GEO_TIMEOUT, 0.014),
        (SiteKind.OUTAGE, 0.028),
    )
    obscure_site_prob: float = 0.11
    #: Probability a new site is a subdomain of an earlier site's
    #: registrable domain (hostnames-per-domain ratio, §2.4).
    shared_domain_prob: float = 0.11
    impaired_site_crawl_factor: float = 0.25
    flaky_timeout_probability: float = 0.85
    max_extra_pages_per_site: int = 120

    # -- humans ----------------------------------------------------------------
    human_marking_prob: float = 0.02

    # -- IABot schedule ----------------------------------------------------------
    first_sweep: SimTime = SimTime.from_ymd(2015, 9, 1)
    sweep_interval_days: float = 90.0
    #: Each sweep scans 1/sweep_shards of all articles (IABot takes
    #: years for a full pass of the English Wikipedia, so marking
    #: dates spread across 2015-2022 rather than clustering at the
    #: first sweep).
    sweep_shards: int = 8
    sweep_until: SimTime = SimTime.from_ymd(2022, 2, 20)
    iabot_timeout_ms: float | None = 5000.0
    iabot_recheck_marked: bool = False

    # -- archive -------------------------------------------------------------------
    availability_base_ms: float = 50.0
    availability_tail_ms: float = 2100.0
    wnrt_coverage: float = 0.50
    wnrt_delay_median_days: float = 0.8
    eventstream_coverage: float = 0.75
    eventstream_delay_median_days: float = 0.2
    crawl_policy: CrawlPolicy = CrawlPolicy()
    #: Organic (site-popularity-driven) crawl attention on wiki-linked
    #: pages that never break, relative to the rest of their site.
    link_page_crawl_factor: float = 0.2
    #: Archive-attention profile for dying links: probability the URL
    #: is never attempted at all, probability it is attempted only
    #: after it broke (the remainder is captured while still working —
    #: those links mostly get patched rather than marked, unless the
    #: availability lookup times out).
    link_never_attempted_prob: float = 0.02
    link_broken_only_prob: float = 0.32
    #: Mean number of extra captures while the URL worked.
    alive_captures_mean: float = 1.0
    #: Capture-attempt rate while the URL is broken (per year).
    broken_capture_rate_per_year: float = 2.2
    #: Probability a typo'd URL never gets an archive attempt.
    typo_never_attempted_prob: float = 0.35
    #: Probability an obscure site's broken link is never attempted at
    #: all (the frontier never learned the site exists) — the §5.2
    #: hostname-level coverage gaps.
    obscure_never_prob: float = 0.25
    #: Probability a query-heavy URL's resource was archived under a
    #: different parameter ordering (the §5.2 implication-b recovery
    #: target).
    query_variant_archived_prob: float = 0.30
    #: Probability a decaying (to-be-abandoned) site blanket-redirects
    #: dead URLs to its homepage for its final stretch.
    abandoned_redirect_era_prob: float = 0.90
    #: Probability a generic dying link was already broken when the
    #: user posted it (stale URL copied from an old source).
    pre_broken_prob: float = 0.08

    def __post_init__(self) -> None:
        if self.n_links < 1:
            raise WorldGenError("n_links must be >= 1")
        if not 0.0 <= self.stays_alive_frac < 1.0:
            raise WorldGenError("stays_alive_frac must be in [0, 1)")
        special = (
            self.typo_frac
            + self.moved_redirect_later_frac
            + self.revived_frac
            + self.moved_prompt_redirect_frac
            + self.query_deep_frac
        )
        if special >= 1.0:
            raise WorldGenError("special disposition fractions must sum below 1")
        if not self.first_sweep < self.sweep_until:
            raise WorldGenError("first_sweep must precede sweep_until")
        if not self.sweep_until < self.study_time:
            raise WorldGenError("sweeps must end before the study begins")

    @functools.cached_property
    def sweep_times(self) -> tuple[SimTime, ...]:
        """IABot sweep instants, first to last (computed once; the
        builder reads them for every link)."""
        times = []
        cursor = self.first_sweep
        while cursor < self.sweep_until or cursor.days == self.sweep_until.days:
            times.append(cursor)
            cursor = cursor.plus_days(self.sweep_interval_days)
        return tuple(times)

    @property
    def last_posting(self) -> SimTime:
        """Latest instant a link may be posted (shortly before study)."""
        return self.study_time.minus_days(20.0)

    def trigger_eras(self) -> tuple[TriggerEra, ...]:
        """The WNRT and EventStream eras under this config."""
        return (
            TriggerEra(
                start=WNRT_START,
                end=EVENTSTREAM_START,
                coverage=self.wnrt_coverage,
                delay_median_days=self.wnrt_delay_median_days,
                delay_sigma=0.8,
            ),
            TriggerEra(
                start=EVENTSTREAM_START,
                end=self.study_time,
                coverage=self.eventstream_coverage,
                delay_median_days=self.eventstream_delay_median_days,
                delay_sigma=0.7,
            ),
        )


class _EventKind(enum.IntEnum):
    """Replay event kinds; the int value is the same-instant tiebreak."""

    CREATE_ARTICLE = 0
    ADD_LINK = 1
    HUMAN_MARK = 2
    SWEEP = 3


@dataclass
class World:
    """A fully generated universe plus handles to observe it."""

    config: WorldConfig
    web: LiveWeb
    encyclopedia: Encyclopedia
    store: SnapshotStore
    availability: AvailabilityApi
    cdx: CdxApi
    crawler: ArchiveCrawler
    bot: InternetArchiveBot
    site_rankings: dict[str, int]
    truth: dict[str, TruthRecord]

    @property
    def study_time(self) -> SimTime:
        """The instant the paper's probes run (March 2022)."""
        return self.config.study_time

    def fetcher(self) -> Fetcher:
        """A fresh live-web GET client for study probes."""
        return self.web.fetcher()

    def fetch(self, url: str, at: SimTime | None = None):
        """One-off GET (defaults to the study instant)."""
        return self.web.fetch(url, at if at is not None else self.study_time)

    def summary(self) -> str:
        """One-paragraph description of the generated universe."""
        stats = self.bot.stats
        return (
            f"world(seed={self.config.seed}): "
            f"{len(self.web.sites())} sites, "
            f"{len(self.encyclopedia)} articles, "
            f"{len(self.store)} snapshots of {self.store.url_count()} urls; "
            f"IABot checked {stats.links_checked} refs, patched "
            f"{stats.patched}, marked {stats.marked_permadead} permadead"
        )


def generate_world(config: WorldConfig | None = None) -> World:
    """Build a universe and run all of history up to the study date."""
    config = config if config is not None else WorldConfig()
    rngs = RngRegistry(config.seed)

    plans = plan_universe(config, rngs)
    built = WebBuilder(config, rngs).build(plans)
    all_links = [link for plan in plans for link in plan.links]

    captures = _plan_captures(config, rngs, built, all_links)
    events = _assemble_events(config, rngs, built, all_links)

    encyclopedia = Encyclopedia()
    store = SnapshotStore()
    availability = AvailabilityApi(
        store,
        AvailabilityPolicy(
            base_ms=config.availability_base_ms,
            tail_scale_ms=config.availability_tail_ms,
            seed=f"availability:{config.seed}",
        ),
    )
    crawler = ArchiveCrawler(built.web.fetcher(), store)
    bot = InternetArchiveBot(
        encyclopedia,
        LinkChecker(built.web.fetcher()),
        IABotArchiveClient(availability, timeout_ms=config.iabot_timeout_ms),
        IABotConfig(
            availability_timeout_ms=config.iabot_timeout_ms,
            recheck_marked_links=config.iabot_recheck_marked,
        ),
    )

    # The whole crawl runs first; each sweep then reads the archive as
    # of its own instant.
    capture_at = crawler.capture_at
    for days, url in captures:
        capture_at(url, days)
    _replay(events, encyclopedia, bot, config.sweep_shards)

    return World(
        config=config,
        web=built.web,
        encyclopedia=encyclopedia,
        store=store,
        availability=availability,
        cdx=CdxApi(store),
        crawler=crawler,
        bot=bot,
        site_rankings=built.site_rankings,
        truth=built.truth,
    )


# -- event assembly ---------------------------------------------------------------


class _Event(NamedTuple):
    """One replay event; tuple order is the replay order."""

    days: float
    kind: _EventKind
    seq: int
    payload: tuple

    def sort_key(self) -> tuple:
        """(time, kind priority, sequence) replay ordering."""
        return (self.days, int(self.kind), self.seq)


def _plan_captures(
    config: WorldConfig,
    rngs: RngRegistry,
    built: BuiltWeb,
    all_links: list[LinkPlan],
) -> list[tuple[float, str]]:
    """Every capture attempt before the study as ``(days, url)`` pairs,
    sorted by day; captures on one day keep plan order."""
    captures: list[tuple[float, str]] = []

    # Organic captures.
    crawl_rng = rngs.stream("crawl.organic")
    organic = OrganicCrawlPlanner(horizon=config.study_time)
    for seed in built.seeds:
        if not config.crawl_policy.crawlable(seed.url):
            continue
        for days in organic.plan_days(
            seed.available_from, seed.rate_per_year, crawl_rng
        ):
            captures.append((days, seed.url))

    # Profile-scheduled capture attempts for the wiki-linked URLs.
    for url, instant in built.fixed_captures:
        if instant < config.study_time:
            captures.append((instant.days, url))

    # Event-triggered captures (WNRT / EventStream).
    trigger = TriggeredArchiver(config.trigger_eras(), rngs.stream("crawl.trigger"))
    for link in all_links:
        if not config.crawl_policy.crawlable(link.url):
            continue
        instant = trigger.capture_time_for(link.posted_at)
        if instant is not None and instant < config.study_time:
            captures.append((instant.days, link.url))

    captures.sort(key=itemgetter(0))  # stable: ties keep plan order
    return captures


def _assemble_events(
    config: WorldConfig,
    rngs: RngRegistry,
    built: BuiltWeb,
    all_links: list[LinkPlan],
) -> list[_Event]:
    """The wiki, human-mark and sweep events, sorted."""
    events: list[_Event] = []
    seq = itertools.count()

    def push(days: float, kind: _EventKind, payload: tuple) -> None:
        """Append one replay event with a stable sequence number."""
        events.append(_Event(days, kind, next(seq), payload))

    # Wiki edits: group links into articles, one creation edit plus one
    # edit per later link.
    wiki_rng = rngs.stream("wiki.plan")
    url_to_title: dict[str, str] = {}
    for title, links in _plan_articles(all_links, wiki_rng):
        links = sorted(links, key=lambda link: link.posted_at.days)
        first, rest = links[0], links[1:]
        url_to_title[first.url] = title
        push(
            first.posted_at.days,
            _EventKind.CREATE_ARTICLE,
            (title, first, wiki_rng.chance(0.8)),
        )
        for link in rest:
            url_to_title[link.url] = title
            push(
                link.posted_at.days,
                _EventKind.ADD_LINK,
                (title, link, wiki_rng.chance(0.8)),
            )

    # Occasional human dead-link annotations.
    human_rng = rngs.stream("wiki.humanmark")
    for link in all_links:
        truth = built.truth.get(link.url)
        if truth is None or truth.dead_from is None:
            continue
        if not human_rng.chance(config.human_marking_prob):
            continue
        mark_days = max(
            truth.dead_from.days + human_rng.lognormal_days(300.0, 1.0),
            # A link can be dead before it is even posted (stale URL);
            # nobody can annotate it before the article exists.
            link.posted_at.days + 30.0,
        )
        if mark_days < config.sweep_until.days:
            push(
                mark_days,
                _EventKind.HUMAN_MARK,
                (url_to_title[link.url], link.url),
            )

    # Bot sweeps: each covers one shard of the article space (a full
    # pass of the wiki takes sweep_shards sweeps).
    for index, sweep_at in enumerate(config.sweep_times):
        push(sweep_at.days, _EventKind.SWEEP, (index % config.sweep_shards,))

    # Sequence numbers are unique, so tuple order is sort_key order and
    # payloads are never compared.
    events.sort()
    return events


def _plan_articles(
    all_links: list[LinkPlan], rng: Stream
) -> list[tuple[str, list[LinkPlan]]]:
    """Assign links to articles with 1-5 links each, titled randomly."""
    links = list(all_links)
    rng.shuffle(links)
    articles: list[tuple[str, list[LinkPlan]]] = []
    used_titles: set[str] = set()
    cursor = 0
    while cursor < len(links):
        size = rng.weighted_choice(
            ((1, 0.35), (2, 0.25), (3, 0.18), (4, 0.12), (5, 0.10))
        )
        chunk = links[cursor: cursor + size]
        cursor += size
        title = _fresh_title(rng, used_titles)
        articles.append((title, chunk))
    return articles


def _fresh_title(rng: Stream, used: set[str]) -> str:
    for _ in range(1000):
        words = rng.sample(_TITLE_WORDS, rng.randint(2, 3))
        title = " ".join(words)
        if rng.chance(0.25):
            title += f" ({rng.randint(1801, 2020)})"
        if title not in used:
            used.add(title)
            return title
    raise WorldGenError("article title space exhausted")


# -- replay -----------------------------------------------------------------------------


def _replay(
    events: list[_Event],
    encyclopedia: Encyclopedia,
    bot: InternetArchiveBot,
    shards: int,
) -> None:
    sweep_shards = SweepShards(shards)
    for days, kind, _, payload in events:
        at = SimTime(days)
        if kind is _EventKind.CREATE_ARTICLE:
            title, link, as_cite = payload
            body = (
                f"'''{title}''' is a subject with external references.\n\n"
                "== References ==\n"
                f"* {_ref_text(link, as_cite)}\n"
            )
            encyclopedia.create_article(title, at, _editor_name(link), body)
        elif kind is _EventKind.ADD_LINK:
            title, link, as_cite = payload
            body = encyclopedia.article(title).wikitext
            body += f"* {_ref_text(link, as_cite)}\n"
            encyclopedia.edit_article(
                title, at, _editor_name(link), body, comment="added reference"
            )
        elif kind is _EventKind.HUMAN_MARK:
            title, url = payload
            _human_mark(encyclopedia, title, url, at)
        else:
            (shard,) = payload
            titles = sweep_shards.titles(encyclopedia.titles(), shard)
            bot.run_sweep(at, titles=titles)


def _ref_text(link: LinkPlan, as_cite: bool) -> str:
    if as_cite:
        return cite_web(link.url, f"Reference {link.index}").render()
    return f"[{link.url} reference {link.index}]"


def _editor_name(link: LinkPlan) -> str:
    return f"Editor{(link.index * 7919) % 997}"


def _human_mark(
    encyclopedia: Encyclopedia, title: str, url: str, at: SimTime
) -> None:
    """A passing human annotates the (dead) reference, without a bot tag."""
    article = encyclopedia.article(title)
    text = article.wikitext
    for ref in article.link_refs():
        if ref.url != url or ref.is_marked_dead or ref.archive_url:
            continue
        replacement = _plain_ref(ref) + dead_link(at).render()
        new_text = text[: ref.span[0]] + replacement + text[ref.span[1]:]
        encyclopedia.edit_article(
            title, at, f"Gnome{derive_seed(677, url) % 677}", new_text,
            comment="tagging dead link",
        )
        return


def _plain_ref(ref: LinkRef) -> str:
    if ref.cite is not None:
        return ref.cite.render()
    if ref.title:
        return f"[{ref.url} {ref.title}]"
    return f"[{ref.url}]"
