"""World building: turn a universe plan into a live web + crawl schedule.

The builder realises each :class:`~repro.dataset.planner.SitePlan` as a
:class:`~repro.web.site.Site` with concrete pages, lifecycles, DNS
intervals, parked successors, and extra (non-wiki-linked) pages. It
also decides when the archive will attempt to capture each URL:

- wiki-linked pages get an explicit *archive-attention profile*
  (captured while alive / captured only after breaking / never
  attempted), the calibration lever behind the paper's §4/§5 splits —
  the capture *outcomes* still come from real fetches at crawl time;
- sites' homepages and extra pages follow popularity-driven organic
  revisit schedules (they furnish Figure 6's coverage counts and the
  §4.2 sibling-redirect evidence).

A structural point worth noting: on sites headed for abandonment,
individual pages die *before* the DNS registration lapses. That
ordering is what lets a link show "DNS failure" on the live web today
while erroneous 404 captures from the decay window still sit in the
archive — a combination the paper observes constantly.

The builder also writes the ground-truth table that *tests* (never
analyses) assert against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..clock import SimTime
from ..errors import WorldGenError
from ..rng import RngRegistry, Stream
from ..urls.generate import UrlFactory
from ..urls.parse import parse_url
from ..web.behaviors import GeoPolicy, MissingPagePolicy, OutageWindow, SiteState
from ..web.page import Page, PageFate
from ..web.robots import RobotsRules
from ..web.site import Site
from ..web.world import LiveWeb
from . import profiles
from .planner import Disposition, LinkPlan, SiteKind, SitePlan

#: Late-redesign missing-page policies for the BECOMES_* site kinds.
_LATE_POLICY = {
    SiteKind.BECOMES_SOFT404: MissingPagePolicy.SOFT_404,
    SiteKind.BECOMES_REDIRECT_HOME: MissingPagePolicy.REDIRECT_HOME,
    SiteKind.BECOMES_REDIRECT_LOGIN: MissingPagePolicy.REDIRECT_LOGIN,
    SiteKind.BECOMES_OFFSITE: MissingPagePolicy.REDIRECT_OFFSITE,
}


@dataclass(frozen=True, slots=True)
class CrawlSeed:
    """One URL the archive's organic frontier revisits on a schedule."""

    url: str
    available_from: SimTime
    rate_per_year: float


@dataclass(frozen=True, slots=True)
class TruthRecord:
    """Generator ground truth for one wiki link — test fixtures only.

    The analysis pipeline must never read these; tests use them to
    verify that emergent measurements agree with construction.
    """

    url: str
    disposition: Disposition
    site_kind: SiteKind
    hostname: str
    ranking: int
    posted_at: SimTime
    dead_from: SimTime | None = None
    """When requests for the link started failing (None = never)."""


@dataclass
class BuiltWeb:
    """Everything the builder hands to the crawl and replay stages."""

    web: LiveWeb
    seeds: list[CrawlSeed] = field(default_factory=list)
    fixed_captures: list[tuple[str, SimTime]] = field(default_factory=list)
    site_rankings: dict[str, int] = field(default_factory=dict)
    truth: dict[str, TruthRecord] = field(default_factory=dict)


def _clamp(value: float, lo: float, hi: float) -> float:
    return max(lo, min(value, hi))


def first_sweep_after(
    instant: SimTime, sweep_times: tuple[SimTime, ...]
) -> SimTime | None:
    """The earliest bot sweep strictly after ``instant``."""
    for sweep in sweep_times:
        if instant < sweep:
            return sweep
    return None


class WebBuilder:
    """Builds the live web for one configuration."""

    def __init__(self, config, rngs: RngRegistry) -> None:
        self._config = config
        self._rng = rngs.stream("build.web")
        self._factory = UrlFactory(rngs.stream("build.urls"))
        self._built = BuiltWeb(web=LiveWeb())
        self._aggregator_roots: list[str] = []
        self._plan_hostnames: dict[int, str] = {}

    # -- public entry point ---------------------------------------------------------

    def build(self, plans: list[SitePlan]) -> BuiltWeb:
        """Realise every site plan and return the built world."""
        self._build_aggregators()
        for plan in plans:
            self._build_site(plan)
        return self._built

    # -- aggregator pool (offsite redirect targets) ------------------------------------

    def _build_aggregators(self) -> None:
        """A few always-up sites that offsite redirects point at
        (cf. baku2017.com redirecting to goalku.com)."""
        for index in range(4):
            hostname = self._factory.hostname()
            site = Site(
                hostname=hostname,
                seed=f"aggregator:{index}:{self._config.seed}",
                ranking=self._rng.randint(1_000, 80_000),
                created_at=SimTime.from_ymd(2001, 1, 1),
                missing_policy=MissingPagePolicy.HARD_404,
            )
            self._built.web.add_site(site)
            self._built.site_rankings[hostname] = site.ranking
            self._aggregator_roots.append(site.root_url)
            self._built.seeds.append(
                CrawlSeed(
                    url=site.root_url,
                    available_from=site.created_at.plus_days(30),
                    rate_per_year=2.0,
                )
            )

    # -- one site --------------------------------------------------------------------------

    def _build_site(self, plan: SitePlan) -> None:
        rng = self._rng
        config = self._config
        hostname = self._hostname_for(plan)
        scheme = "https" if rng.chance(0.3) else "http"

        page_created = {
            link.index: self._page_created_at(link, rng) for link in plan.links
        }
        site_created = SimTime(
            _clamp(
                min(t.days for t in page_created.values())
                - rng.uniform(60.0, 900.0),
                SimTime.from_ymd(1996, 1, 1).days,
                SimTime.from_ymd(2021, 6, 1).days,
            )
        )

        # Page-death draws for the generic dying dispositions; on
        # abandoned sites these also anchor the DNS lapse (pages rot
        # first, the registration goes last) and the decay-era start.
        death_draws = {
            link.index: link.posted_at.days
            + profiles.draw_survival_after_posting(rng)
            for link in plan.links
            if link.disposition in (Disposition.DIES, Disposition.QUERY_DEEP)
        }
        dns_dies, parked_from = self._site_end_times(plan, death_draws, rng)
        state = self._site_state(plan, rng)

        site = Site(
            hostname=hostname,
            seed=f"site:{plan.index}:{config.seed}",
            scheme=scheme,
            ranking=plan.ranking,
            created_at=site_created,
            dns_dies_at=dns_dies,
            missing_policy=MissingPagePolicy.HARD_404,
            policy_changes=self._policy_changes(
                plan, site_created, dns_dies, death_draws, rng
            ),
            offsite_redirect_target=(
                rng.choice(self._aggregator_roots)
                if plan.kind is SiteKind.BECOMES_OFFSITE
                else None
            ),
            state=state,
        )

        directories = [self._factory.directory() for _ in range(rng.randint(2, 4))]
        used_paths: set[str] = set()
        crawl_rate = (
            0.0 if plan.obscure else profiles.draw_crawl_rate(rng, plan.ranking)
        )
        if plan.kind in (SiteKind.GEO_403, SiteKind.GEO_TIMEOUT, SiteKind.OUTAGE):
            # Impaired sites were also lightly crawled, otherwise their
            # pre-impairment 200 captures would get nearly all their
            # links patched rather than marked.
            crawl_rate *= config.impaired_site_crawl_factor

        for link in plan.links:
            self._build_link(
                plan, link, site, directories, used_paths,
                page_created[link.index], dns_dies,
                death_draws.get(link.index), crawl_rate, rng,
            )

        self._build_extra_pages(plan, site, directories, used_paths, crawl_rate, rng)
        self._assign_robots(plan, site)

        if crawl_rate > 0:
            self._built.seeds.append(
                CrawlSeed(
                    url=site.root_url,
                    available_from=site.created_at.plus_days(
                        profiles.draw_discovery_lag_days(rng)
                    ),
                    rate_per_year=crawl_rate * 1.2,
                )
            )

        self._built.web.add_site(site)
        self._built.site_rankings[hostname] = plan.ranking

        if plan.kind is SiteKind.ABANDONED_PARKED and parked_from is not None:
            parked = Site(
                hostname=hostname,
                seed=f"parked:{plan.index}:{config.seed}",
                scheme=scheme,
                ranking=profiles.RANK_MAX,
                created_at=parked_from,
                state=SiteState(parked_from=parked_from),
            )
            self._built.web.add_parked_successor(site, parked)

    def _assign_robots(self, plan: SitePlan, site: Site) -> None:
        """Isolated deep-query directories get robots-excluded.

        Real sites routinely disallow their script/search endpoints;
        this makes the never-archived mechanism observable (the
        crawler's robots cache denies the capture) instead of being a
        silent frontier policy only.
        """
        directories = set()
        for link in plan.links:
            if link.disposition is Disposition.QUERY_DEEP and link.isolated_directory:
                path = parse_url(link.url).path
                directories.add(path[: path.rfind("/") + 1])
        if directories:
            site.robots = RobotsRules(disallow=tuple(sorted(directories)))

    def _hostname_for(self, plan: SitePlan) -> str:
        """A fresh hostname — usually on a fresh registrable domain,
        sometimes a sibling subdomain of an earlier site's domain."""
        hostname = None
        if plan.domain_sibling_of is not None:
            anchor = self._plan_hostnames.get(plan.domain_sibling_of)
            if anchor is not None:
                for _ in range(8):
                    candidate = self._factory.sibling_hostname(anchor)
                    if candidate not in self._plan_hostnames.values():
                        hostname = candidate
                        break
        if hostname is None:
            hostname = self._factory.hostname()
        self._plan_hostnames[plan.index] = hostname
        return hostname

    # -- site-level timing/state -----------------------------------------------------------

    def _page_created_at(self, link: LinkPlan, rng: Stream) -> SimTime:
        age = profiles.draw_page_age_at_posting(rng)
        return SimTime(
            _clamp(
                link.posted_at.days - age,
                SimTime.from_ymd(1997, 1, 1).days,
                link.posted_at.days - 5.0,
            )
        )

    def _policy_changes(
        self,
        plan: SitePlan,
        site_created: SimTime,
        dns_dies: SimTime | None,
        death_draws: dict[int, float],
        rng: Stream,
    ) -> tuple[tuple[SimTime, MissingPagePolicy], ...]:
        """The site's missing-policy timeline beyond its HARD_404 base."""
        config = self._config
        last_sweep = config.sweep_times[-1]
        if plan.kind.abandoned and dns_dies is not None:
            # Many decaying sites blanket-redirect dead URLs to the
            # homepage for their decay period — from around when pages
            # start rotting until the DNS lapses.
            if not rng.chance(config.abandoned_redirect_era_prob):
                return ()
            anchor = (
                min(death_draws.values())
                if death_draws
                else dns_dies.days - rng.uniform(600.0, 2200.0)
            )
            era_start = SimTime(
                _clamp(
                    anchor - rng.uniform(0.0, 200.0),
                    site_created.days + 30.0,
                    dns_dies.days - 90.0,
                )
            )
            return ((era_start, MissingPagePolicy.REDIRECT_HOME),)
        if plan.kind is SiteKind.REDIRECT_ERA:
            # A redirect-home CMS phase somewhere in the past, over
            # before the study (and before the last sweep, so IABot
            # gets a 404 to mark).
            era_start = SimTime(
                _clamp(
                    rng.uniform(
                        SimTime.from_ymd(2009, 1, 1).days,
                        SimTime.from_ymd(2017, 1, 1).days,
                    ),
                    site_created.days + 30.0,
                    last_sweep.days - 1000.0,
                )
            )
            era_end = SimTime(
                min(
                    era_start.days + rng.uniform(2000.0, 4200.0),
                    last_sweep.days - 120.0,
                )
            )
            if not era_start < era_end:
                return ()
            return (
                (era_start, MissingPagePolicy.REDIRECT_HOME),
                (era_end, MissingPagePolicy.HARD_404),
            )
        late = _LATE_POLICY.get(plan.kind)
        if late is not None:
            change_at = SimTime(
                rng.uniform(
                    SimTime.from_ymd(2019, 1, 1).days,
                    config.study_time.days - 45.0,
                )
            )
            return ((change_at, late),)
        return ()

    def _site_end_times(
        self, plan: SitePlan, death_draws: dict[int, float], rng: Stream
    ) -> tuple[SimTime | None, SimTime | None]:
        if not plan.kind.abandoned:
            return None, None
        config = self._config
        last_sweep = config.sweep_times[-1]
        full_pass = config.sweep_interval_days * config.sweep_shards
        upper = last_sweep.days - full_pass - 60.0
        if plan.kind is SiteKind.ABANDONED_PARKED:
            upper = last_sweep.days - full_pass - 420.0
        # Long decay: pages rot individually for a while before the
        # registration finally lapses.
        anchor = max(
            [plan.max_posted.days + 120.0]
            + [death + 120.0 for death in death_draws.values()]
        )
        lower = plan.max_posted.days + 120.0
        raw = anchor + rng.lognormal_days(500.0, 0.7)
        dns_dies = SimTime(_clamp(raw, lower, max(lower, upper)))
        parked_from = None
        if plan.kind is SiteKind.ABANDONED_PARKED:
            parked_from = SimTime(
                _clamp(
                    dns_dies.days + rng.uniform(300.0, 900.0),
                    dns_dies.days + 30.0,
                    config.study_time.days - 30.0,
                )
            )
        return dns_dies, parked_from

    def _site_state(self, plan: SitePlan, rng: Stream) -> SiteState:
        config = self._config
        last_sweep = config.sweep_times[-1]
        if plan.kind is SiteKind.FLAKY:
            return SiteState(timeout_probability=config.flaky_timeout_probability)
        full_pass = config.sweep_interval_days * config.sweep_shards
        if plan.kind in (SiteKind.GEO_403, SiteKind.GEO_TIMEOUT):
            onset = SimTime(
                _clamp(
                    plan.max_posted.days + rng.lognormal_days(500.0, 0.6),
                    plan.max_posted.days + 60.0,
                    max(plan.max_posted.days + 60.0,
                        last_sweep.days - full_pass - 60.0),
                )
            )
            policy = (
                GeoPolicy.BLOCKED_403
                if plan.kind is SiteKind.GEO_403
                else GeoPolicy.BLOCKED_TIMEOUT
            )
            return SiteState(geo=policy, geo_from=onset)
        if plan.kind is SiteKind.OUTAGE:
            onset = SimTime(
                _clamp(
                    plan.max_posted.days + rng.lognormal_days(600.0, 0.6),
                    plan.max_posted.days + 60.0,
                    max(plan.max_posted.days + 60.0,
                        last_sweep.days - full_pass - 60.0),
                )
            )
            window = OutageWindow(start=onset, end=config.study_time.plus_days(60.0))
            return SiteState(outages=(window,))
        return SiteState()

    # -- one link ----------------------------------------------------------------------------

    def _build_link(
        self,
        plan: SitePlan,
        link: LinkPlan,
        site: Site,
        directories: list[str],
        used_paths: set[str],
        created_at: SimTime,
        dns_dies: SimTime | None,
        death_draw: float | None,
        crawl_rate: float,
        rng: Stream,
    ) -> None:
        if link.disposition is Disposition.TYPO:
            self._build_typo_link(
                plan, link, site, directories, used_paths, created_at,
                crawl_rate, rng,
            )
            return

        path_query = self._fresh_path(
            link.disposition, directories, used_paths, rng, link.isolated_directory
        )
        url = site.url_for(path_query)
        link.url = url

        page = self._page_for(
            plan, link, path_query, created_at, dns_dies, death_draw,
            site, used_paths, rng,
        )
        site.add_page(page)

        self._built.truth[url] = TruthRecord(
            url=url,
            disposition=link.disposition,
            site_kind=plan.kind,
            hostname=site.hostname,
            ranking=plan.ranking,
            posted_at=link.posted_at,
            dead_from=self._dead_from(plan, link, page, dns_dies, site),
        )

        self._schedule_link_captures(
            plan, link, page, site, dns_dies, crawl_rate, rng
        )
        if link.disposition is Disposition.QUERY_DEEP:
            self._maybe_schedule_query_variant(link, page, rng)

    def _maybe_schedule_query_variant(
        self, link: LinkPlan, page: Page, rng: Stream
    ) -> None:
        """Sometimes the archive holds the *same resource* under a
        different parameter ordering (captured via an onsite link),
        even though the exact posted string was never crawled — the
        recovery target of §5.2's implication (b)."""
        if not rng.chance(self._config.query_variant_archived_prob):
            return
        variant = self._factory.reorder_query(parse_url(link.url))
        if variant is None:
            return
        alive_start = page.created_at.days + 10.0
        alive_end = (
            page.died_at.days if page.died_at is not None
            else self._config.study_time.days
        )
        self._fixed_uniform_captures(
            str(variant),
            start=alive_start,
            end=alive_end,
            count=1 + rng.poisson(0.5),
            rng=rng,
        )

    def _fresh_path(
        self,
        disposition: Disposition,
        directories: list[str],
        used_paths: set[str],
        rng: Stream,
        isolated: bool,
    ) -> str:
        for _ in range(200):
            if disposition is Disposition.QUERY_DEEP:
                directory = (
                    self._factory.directory(depth=3)
                    if isolated
                    else rng.choice(directories)
                )
                leaf = self._factory.leaf(style="asp")
                query = self._factory.query_string(params=rng.randint(4, 7))
                candidate = f"{directory}{leaf}?{query}"
            else:
                directory = rng.choice(directories)
                style = "numeric" if rng.chance(0.3) else "slug"
                candidate = f"{directory}{self._factory.leaf(style=style)}"
            if candidate not in used_paths:
                used_paths.add(candidate)
                return candidate
        raise RuntimeError("could not find a fresh path on site")

    def _page_for(
        self,
        plan: SitePlan,
        link: LinkPlan,
        path_query: str,
        created_at: SimTime,
        dns_dies: SimTime | None,
        death_draw: float | None,
        site: Site,
        used_paths: set[str],
        rng: Stream,
    ) -> Page:
        disposition = link.disposition
        posted = link.posted_at

        if disposition is Disposition.STAYS_ALIVE:
            return Page(path_query=path_query, created_at=created_at)

        if disposition is Disposition.MOVED_PROMPT_REDIRECT:
            return self._prompt_moved_page(
                plan, link, path_query, created_at, dns_dies, site,
                used_paths, rng,
            )

        if plan.kind in (
            SiteKind.FLAKY,
            SiteKind.GEO_403,
            SiteKind.GEO_TIMEOUT,
            SiteKind.OUTAGE,
        ):
            # Deadness comes from the site impairment, not the page.
            return Page(path_query=path_query, created_at=created_at)

        died_at = (
            SimTime(death_draw)
            if death_draw is not None
            else posted.plus_days(profiles.draw_survival_after_posting(rng))
        )
        if (
            disposition is Disposition.DIES
            and rng.chance(self._config.pre_broken_prob)
            and created_at.days + 20.0 < posted.days - 30.0
        ):
            # Already broken when posted: the user copied a stale URL.
            died_at = SimTime(
                _clamp(
                    posted.days - rng.uniform(30.0, 600.0),
                    created_at.days + 20.0,
                    posted.days - 30.0,
                )
            )
        if plan.kind.abandoned:
            # The page rots before the registration lapses; if the
            # draw lands too late, the page simply dies with the site.
            if dns_dies is None:
                raise WorldGenError(
                    f"abandoned site of {link.url!r} has no DNS death"
                )
            if dns_dies.days - 90.0 <= posted.days + 30.0:
                return Page(path_query=path_query, created_at=created_at)
            died_at = SimTime(
                _clamp(died_at.days, posted.days + 30.0, dns_dies.days - 90.0)
            )
            return Page(
                path_query=path_query,
                created_at=created_at,
                fate=PageFate.DELETED,
                died_at=died_at,
            )

        if disposition is Disposition.MOVED_REDIRECT_LATER:
            redirect_at = self._late_fix_time(died_at, rng)
            target_path = self._fresh_path(
                Disposition.DIES, [self._factory.directory()], used_paths, rng, False
            )
            site.add_page(Page(path_query=target_path, created_at=died_at))
            return Page(
                path_query=path_query,
                created_at=created_at,
                fate=PageFate.MOVED,
                died_at=died_at,
                moved_to=site.url_for(target_path),
                redirect_added_at=redirect_at,
            )

        if disposition is Disposition.REVIVED:
            return Page(
                path_query=path_query,
                created_at=created_at,
                fate=PageFate.DELETED,
                died_at=died_at,
                revived_at=self._late_fix_time(died_at, rng),
            )

        # DIES / QUERY_DEEP on a stays-up site: plain deletion.
        return Page(
            path_query=path_query,
            created_at=created_at,
            fate=PageFate.DELETED,
            died_at=died_at,
        )

    def _prompt_moved_page(
        self,
        plan: SitePlan,
        link: LinkPlan,
        path_query: str,
        created_at: SimTime,
        dns_dies: SimTime | None,
        site: Site,
        used_paths: set[str],
        rng: Stream,
    ) -> Page:
        """A page that moved with a working redirect, which later broke.

        Half the time the move predates the wiki posting (the user
        posted a URL that already redirected — also how §5.1's
        pre-posting copies arise). The redirect's end is the site's
        DNS lapse on abandoned sites, or an explicit removal during a
        later restructuring on sites that stay up.
        """
        posted = link.posted_at
        config = self._config
        last_sweep = config.sweep_times[-1]
        redirect_end_cap = (
            dns_dies.days - 60.0
            if dns_dies is not None
            else last_sweep.days - 90.0
        )
        latest_move = min(redirect_end_cap - 120.0, posted.days + 500.0)
        earliest_move = created_at.days + 15.0
        if rng.chance(0.6):
            move_days = _clamp(
                posted.days - rng.uniform(60.0, 700.0),
                earliest_move,
                max(earliest_move, latest_move),
            )
        else:
            move_days = _clamp(
                posted.days + rng.uniform(30.0, 500.0),
                earliest_move,
                max(earliest_move, latest_move),
            )
        move_at = SimTime(move_days)
        removed_at = None
        if dns_dies is None:
            removed_days = _clamp(
                move_at.days + rng.uniform(400.0, 1800.0),
                move_at.days + 90.0,
                last_sweep.days - 90.0,
            )
            removed_at = SimTime(removed_days)
        target_path = self._fresh_path(
            Disposition.DIES, [self._factory.directory()], used_paths, rng, False
        )
        site.add_page(Page(path_query=target_path, created_at=move_at))
        return Page(
            path_query=path_query,
            created_at=created_at,
            fate=PageFate.MOVED,
            died_at=move_at,
            moved_to=site.url_for(target_path),
            redirect_added_at=move_at,
            redirect_removed_at=removed_at,
        )

    def _dead_from(
        self,
        plan: SitePlan,
        link: LinkPlan,
        page: Page,
        dns_dies: SimTime | None,
        site: Site,
    ) -> SimTime | None:
        """Ground truth: when GETs for the link started failing."""
        disposition = link.disposition
        if disposition is Disposition.STAYS_ALIVE:
            return None
        if disposition is Disposition.TYPO:
            return link.posted_at
        if plan.kind is SiteKind.FLAKY:
            return link.posted_at
        if plan.kind in (SiteKind.GEO_403, SiteKind.GEO_TIMEOUT):
            return site.state.geo_from
        if plan.kind is SiteKind.OUTAGE:
            return site.state.outages[0].start if site.state.outages else None
        if disposition is Disposition.MOVED_PROMPT_REDIRECT:
            # The redirect works until the DNS lapses or it is removed.
            if page.redirect_removed_at is not None:
                return page.redirect_removed_at
            return dns_dies
        if plan.kind.abandoned:
            if page.died_at is not None:
                return page.died_at
            return dns_dies
        return page.died_at

    def _late_fix_time(self, died_at: SimTime, rng: Stream) -> SimTime | None:
        """A revival/redirect instant that lands after IABot has had a
        sweep to mark the link, but before the study probes it.

        ``None`` when the page died too close to the study for a fix
        to fit — the link then simply stays dead (quota shortfall, not
        an error).
        """
        config = self._config
        sweep = first_sweep_after(died_at, config.sweep_times)
        # The bot's rolling pass may take a full cycle of shards to
        # reach this article, so leave room for marking before fixing.
        full_pass_days = config.sweep_interval_days * config.sweep_shards
        earliest = died_at.days + 60.0
        if sweep is not None:
            earliest = max(earliest, sweep.days + full_pass_days * 1.1)
        candidate = max(earliest, died_at.days + rng.uniform(900.0, 1700.0))
        candidate = min(candidate, config.study_time.days - 20.0)
        if candidate < earliest:
            return None
        return SimTime(candidate)

    def _build_typo_link(
        self,
        plan: SitePlan,
        link: LinkPlan,
        site: Site,
        directories: list[str],
        used_paths: set[str],
        created_at: SimTime,
        crawl_rate: float,
        rng: Stream,
    ) -> None:
        """A real page plus a mangled URL that never existed."""
        real_path = self._fresh_path(
            Disposition.DIES, directories, used_paths, rng, False
        )
        real_page = Page(path_query=real_path, created_at=created_at)
        site.add_page(real_page)
        real_url = site.url_for(real_path)
        if crawl_rate > 0:
            self._built.seeds.append(
                CrawlSeed(
                    url=real_url,
                    available_from=self._discovery_time(real_page, rng),
                    rate_per_year=crawl_rate,
                )
            )
        for _ in range(50):
            mangled = self._factory.typo(parse_url(real_url))
            path_query = mangled.path + (
                f"?{mangled.query}" if mangled.query else ""
            )
            if path_query not in used_paths:
                used_paths.add(path_query)
                link.url = str(mangled)
                break
        else:
            raise RuntimeError("could not produce a fresh typo URL")
        self._built.truth[link.url] = TruthRecord(
            url=link.url,
            disposition=Disposition.TYPO,
            site_kind=plan.kind,
            hostname=site.hostname,
            ranking=plan.ranking,
            posted_at=link.posted_at,
            dead_from=link.posted_at,
        )
        # The mangled URL itself: the archive either attempts it late
        # (storing 404s) or never hears of it.
        config = self._config
        if not config.crawl_policy.crawlable(link.url):
            return
        if rng.chance(config.typo_never_attempted_prob):
            return
        self._fixed_uniform_captures(
            link.url,
            start=link.posted_at.days + 30.0,
            end=config.study_time.days,
            count=1 + rng.poisson(1.0),
            rng=rng,
        )

    def _discovery_time(self, page: Page, rng: Stream) -> SimTime:
        """When the archive frontier learns the page's URL exists."""
        return page.created_at.plus_days(profiles.draw_discovery_lag_days(rng))

    # -- archive attention profiles -------------------------------------------------------

    def _schedule_link_captures(
        self,
        plan: SitePlan,
        link: LinkPlan,
        page: Page,
        site: Site,
        dns_dies: SimTime | None,
        crawl_rate: float,
        rng: Stream,
    ) -> None:
        """Decide when the archive attempts this wiki-linked URL.

        Profiles (probabilities in the config): captured while the URL
        still worked, captured only after it broke, or never attempted.
        Event-feed (WNRT/EventStream) captures are scheduled separately
        by world generation's capture planner.
        """
        config = self._config
        if not config.crawl_policy.crawlable(link.url):
            return

        if link.disposition is Disposition.STAYS_ALIVE:
            if crawl_rate > 0:
                self._built.seeds.append(
                    CrawlSeed(
                        url=link.url,
                        available_from=self._discovery_time(page, rng),
                        rate_per_year=crawl_rate * config.link_page_crawl_factor,
                    )
                )
            return

        alive_window, broken_window = self._capture_windows(
            plan, link, page, site, dns_dies
        )

        roll = rng.random()
        if roll < config.link_never_attempted_prob:
            return
        captured_alive = roll >= (
            config.link_never_attempted_prob + config.link_broken_only_prob
        )
        if plan.obscure:
            # The organic frontier never learned this site exists, so
            # nothing was captured while it worked; often nothing was
            # captured at all (the §5.2 hostname-level coverage gaps),
            # otherwise only later wiki-driven attempts occur.
            if rng.chance(config.obscure_never_prob):
                return
            captured_alive = False

        if captured_alive and alive_window is not None:
            self._fixed_uniform_captures(
                link.url,
                start=alive_window[0],
                end=alive_window[1],
                count=1 + rng.poisson(config.alive_captures_mean),
                rng=rng,
            )
        if broken_window is not None:
            start, end = broken_window
            years = max(end - start, 0.0) / 365.2425
            count = rng.poisson(config.broken_capture_rate_per_year * years)
            if not captured_alive:
                count += 1  # broken-only links get at least one attempt
            self._fixed_uniform_captures(
                link.url, start=start, end=end, count=count, rng=rng
            )

    def _capture_windows(
        self,
        plan: SitePlan,
        link: LinkPlan,
        page: Page,
        site: Site,
        dns_dies: SimTime | None,
    ) -> tuple[tuple[float, float] | None, tuple[float, float] | None]:
        """(alive, broken) capture-attempt windows in days, or None."""
        study = self._config.study_time.days
        created = page.created_at.days + 10.0

        if plan.kind is SiteKind.FLAKY:
            # Attempts happen but nearly all fail at the transport
            # level; scheduling a couple keeps the behaviour honest.
            return (created, study), None
        if plan.kind in (SiteKind.GEO_403, SiteKind.GEO_TIMEOUT):
            onset = site.state.geo_from
            onset_days = onset.days if onset is not None else study
            broken = (
                (onset_days, study)
                if plan.kind is SiteKind.GEO_403
                else None  # timeouts leave no archive trace
            )
            return (created, onset_days), broken
        if plan.kind is SiteKind.OUTAGE:
            onset = site.state.outages[0].start.days
            return (created, onset), (onset, study)

        if link.disposition is Disposition.MOVED_PROMPT_REDIRECT:
            if page.died_at is None:
                raise WorldGenError(f"moved page {link.url!r} never died")
            if page.redirect_removed_at is not None:
                redirect_end = page.redirect_removed_at.days
            elif dns_dies is not None:
                redirect_end = dns_dies.days
            else:
                redirect_end = study
            # The "broken" window here is the redirect era: captures in
            # it are the valid 3xx copies of §4.2.
            return (created, page.died_at.days), (page.died_at.days, redirect_end)

        if plan.kind.abandoned:
            if dns_dies is None:
                raise WorldGenError(
                    f"abandoned site of {link.url!r} has no DNS death"
                )
            page_dead = (
                page.died_at.days if page.died_at is not None else dns_dies.days
            )
            return (created, page_dead), (page_dead, dns_dies.days)

        if page.died_at is None:
            raise WorldGenError(f"dying page {link.url!r} never died")
        return (created, page.died_at.days), (page.died_at.days, study)

    def _fixed_uniform_captures(
        self, url: str, start: float, end: float, count: int, rng: Stream
    ) -> None:
        if count <= 0 or end <= start:
            return
        for _ in range(count):
            self._built.fixed_captures.append(
                (url, SimTime(rng.uniform(start, end)))
            )

    # -- extra pages -------------------------------------------------------------------------

    def _build_extra_pages(
        self,
        plan: SitePlan,
        site: Site,
        directories: list[str],
        used_paths: set[str],
        crawl_rate: float,
        rng: Stream,
    ) -> None:
        count = min(
            profiles.draw_extra_pages(rng, plan.ranking),
            self._config.max_extra_pages_per_site,
        )
        for _ in range(count):
            directory = (
                rng.choice(directories)
                if rng.chance(0.8)
                else self._factory.directory()
            )
            style = "numeric" if rng.chance(0.4) else "slug"
            candidate = f"{directory}{self._factory.leaf(style=style)}"
            if candidate in used_paths:
                continue
            used_paths.add(candidate)
            created = site.created_at.plus_days(rng.log_uniform(30.0, 2500.0))
            if rng.chance(0.25):
                page = Page(
                    path_query=candidate,
                    created_at=created,
                    fate=PageFate.DELETED,
                    died_at=created.plus_days(rng.lognormal_days(900.0, 0.8)),
                )
            else:
                page = Page(path_query=candidate, created_at=created)
            site.add_page(page)
            if crawl_rate > 0:
                self._built.seeds.append(
                    CrawlSeed(
                        url=site.url_for(candidate),
                        available_from=self._discovery_time(page, rng),
                        rate_per_year=crawl_rate,
                    )
                )
