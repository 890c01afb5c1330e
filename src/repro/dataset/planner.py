"""Universe planning: which sites exist, which links live where.

Planning is the first of four world-generation stages (plan → build →
crawl → replay). It decides, for every external link the synthetic Wikipedia
will ever carry:

- which site hosts it (domain sizes follow Figure 3a's power law);
- the site's *kind* (how the site, and therefore its dead URLs,
  behave — see :class:`SiteKind`);
- the link's *disposition* (how its individual lifecycle plays out —
  see :class:`Disposition`);
- when it is posted to Wikipedia (Figure 3c's profile).

Mixture weights live in :class:`~repro.dataset.worldgen.WorldConfig`;
the planner only enforces compatibility (e.g. a revived page needs a
site that stays up) and fills quotas deterministically from the named
RNG streams.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..clock import SimTime
from ..rng import RngRegistry
from . import profiles


class SiteKind(enum.Enum):
    """How a site behaves over time, especially towards dead URLs.

    Sites are not static: they redesign, switch CMSes, get abandoned,
    and get squatted. The kinds below are behaviour *timelines*; the
    combination of a timeline with IABot's check date and the study's
    probe date is what produces the paper's populations (a site that
    404s in 2018 and blanket-redirects in 2022 yields a marked link
    that "works" today).
    """

    HARD404 = "hard404"
    """Stays up; missing URLs always answer an honest 404."""

    REDIRECT_ERA = "redirect_era"
    """Stays up; for a few years in the past, missing URLs redirected
    to the homepage (a CMS phase), then back to honest 404s. Source of
    most of the §4.2 erroneous 3xx archived copies."""

    BECOMES_SOFT404 = "becomes_soft404"
    """Honest 404s until a late redesign; afterwards missing URLs
    return 200 with an error page (§3's soft-404s at study time)."""

    BECOMES_REDIRECT_HOME = "becomes_redirect_home"
    """Honest 404s until a late redesign; afterwards missing URLs
    redirect to the homepage."""

    BECOMES_REDIRECT_LOGIN = "becomes_redirect_login"
    """Honest 404s until the site put everything behind a login."""

    BECOMES_OFFSITE = "becomes_offsite"
    """Honest 404s until the brand was sold; afterwards everything
    redirects to an unrelated site (cf. baku2017.com -> goalku.com)."""

    ABANDONED = "abandoned"            # DNS registration lapses
    ABANDONED_PARKED = "abandoned_parked"  # ...and a squatter re-registers
    FLAKY = "flaky"                    # chronic connection timeouts
    GEO_403 = "geo_403"                # geo-blocked with an explicit 403
    GEO_TIMEOUT = "geo_timeout"        # geo-blocked by dropping connections
    OUTAGE = "outage"                  # long 503 outage late in life

    @property
    def stays_up(self) -> bool:
        """Whether the site keeps serving (something) through the
        study period."""
        return self in (
            SiteKind.HARD404,
            SiteKind.REDIRECT_ERA,
            SiteKind.BECOMES_SOFT404,
            SiteKind.BECOMES_REDIRECT_HOME,
            SiteKind.BECOMES_REDIRECT_LOGIN,
            SiteKind.BECOMES_OFFSITE,
        )

    @property
    def abandoned(self) -> bool:
        """Whether the site's DNS registration eventually lapses."""
        return self in (SiteKind.ABANDONED, SiteKind.ABANDONED_PARKED)


class Disposition(enum.Enum):
    """One link's lifecycle script."""

    STAYS_ALIVE = "stays_alive"
    """Never breaks. IABot leaves it alone; it pads the wiki with the
    realistic majority of working references."""

    DIES = "dies"
    """The generic broken link: the page is deleted (on sites that
    stay up) or the whole site goes away (on abandoned/impaired
    sites)."""

    MOVED_REDIRECT_LATER = "moved_redirect_later"
    """Page moves and errors for years; the site adds a redirect to
    the new URL only after IABot has marked the link. The §3
    "permanently dead links that work again" mechanism (79% of the
    functional ones redirect first)."""

    REVIVED = "revived"
    """Page is deleted, marked dead, then restored at the original URL
    (the §3 functional links that do not redirect)."""

    MOVED_PROMPT_REDIRECT = "moved_prompt_redirect"
    """Page moves early with a working redirect; archive captures show
    initial 3xx status, so IABot ignores them (§4.2). The redirect
    later stops working — the site dies, or a further restructuring
    drops it — leaving those valid redirect copies as the only
    record."""

    TYPO = "typo"
    """The posted URL never existed — a one-edit mangling of a real
    page's URL (§5.1 same-day-erroneous copies, §5.2 edit-distance
    typo detection)."""

    QUERY_DEEP = "query_deep"
    """A deep link with many query parameters that web-archive crawl
    frontiers refuse (§5.2's never-archived URLs), which then dies."""

    @property
    def dying(self) -> bool:
        """Whether the link eventually breaks."""
        return self is not Disposition.STAYS_ALIVE


#: Site kinds compatible with each special disposition.
_DISPOSITION_SITE_KINDS: dict[Disposition, tuple[SiteKind, ...]] = {
    Disposition.MOVED_REDIRECT_LATER: (SiteKind.HARD404, SiteKind.REDIRECT_ERA),
    Disposition.REVIVED: (SiteKind.HARD404, SiteKind.REDIRECT_ERA),
    Disposition.MOVED_PROMPT_REDIRECT: (
        SiteKind.ABANDONED,
        SiteKind.ABANDONED_PARKED,
        SiteKind.HARD404,
        SiteKind.REDIRECT_ERA,
    ),
    Disposition.TYPO: (SiteKind.HARD404, SiteKind.REDIRECT_ERA),
    Disposition.QUERY_DEEP: (
        SiteKind.HARD404,
        SiteKind.REDIRECT_ERA,
        SiteKind.ABANDONED,
    ),
    Disposition.STAYS_ALIVE: (
        SiteKind.HARD404,
        SiteKind.REDIRECT_ERA,
        SiteKind.BECOMES_SOFT404,
        SiteKind.BECOMES_REDIRECT_HOME,
        SiteKind.BECOMES_REDIRECT_LOGIN,
        SiteKind.BECOMES_OFFSITE,
    ),
}


@dataclass
class LinkPlan:
    """One planned external link (site assignment comes via the parent
    :class:`SitePlan`)."""

    index: int
    disposition: Disposition
    posted_at: SimTime
    url: str = ""                  # filled by the builder
    isolated_directory: bool = False  # QUERY_DEEP: no archived siblings


@dataclass
class SitePlan:
    """One planned site and the links it will host."""

    index: int
    kind: SiteKind
    ranking: int
    links: list[LinkPlan] = field(default_factory=list)
    obscure: bool = False  # never organically crawled
    domain_sibling_of: int | None = None
    """Index of an earlier site whose registrable domain this site
    shares (a different subdomain) — the paper's dataset has ~12% more
    hostnames than domains."""

    @property
    def max_posted(self) -> SimTime:
        """Latest posting instant among the site's links."""
        return max(link.posted_at for link in self.links)


def plan_universe(config, rngs: RngRegistry) -> list[SitePlan]:
    """Produce the full site/link plan for a config.

    Deterministic given the registry's master seed.
    """
    site_rng = rngs.stream("plan.sites")
    link_rng = rngs.stream("plan.links")
    timing_rng = rngs.stream("plan.timing")

    # Whole-site impairments (flakiness, geo-blocks, outages) are a
    # small-site phenomenon; a large domain drawing one would swing the
    # dataset composition wildly between seeds.
    small_site_only = (
        SiteKind.FLAKY,
        SiteKind.GEO_403,
        SiteKind.GEO_TIMEOUT,
        SiteKind.OUTAGE,
        SiteKind.ABANDONED_PARKED,
    )
    large_site_weights = tuple(
        (kind, weight)
        for kind, weight in config.site_kind_weights
        if kind not in small_site_only
    )

    # 1. Domain sizes and site kinds.
    plans: list[SitePlan] = []
    remaining = config.n_links
    link_index = 0
    while remaining > 0:
        size = profiles.draw_domain_size(site_rng, remaining)
        weights = (
            large_site_weights if size > 12 else config.site_kind_weights
        )
        kind = site_rng.weighted_choice(weights)
        sibling_of = None
        if plans and site_rng.chance(config.shared_domain_prob):
            sibling_of = site_rng.randrange(len(plans))
        plan = SitePlan(
            index=len(plans),
            kind=kind,
            ranking=profiles.draw_site_ranking(site_rng),
            obscure=site_rng.chance(config.obscure_site_prob),
            domain_sibling_of=sibling_of,
        )
        for _ in range(size):
            plan.links.append(
                LinkPlan(
                    index=link_index,
                    disposition=Disposition.DIES,
                    posted_at=profiles.draw_posting_time(
                        timing_rng, config.last_posting
                    ),
                )
            )
            link_index += 1
        plans.append(plan)
        remaining -= size

    # 2. Fill special-disposition quotas from compatible sites.
    dying_total = round(config.n_links * (1.0 - config.stays_alive_frac))
    quotas: list[tuple[Disposition, int]] = [
        (Disposition.TYPO, round(dying_total * config.typo_frac)),
        (
            Disposition.MOVED_REDIRECT_LATER,
            round(dying_total * config.moved_redirect_later_frac),
        ),
        (Disposition.REVIVED, round(dying_total * config.revived_frac)),
        (
            Disposition.MOVED_PROMPT_REDIRECT,
            round(dying_total * config.moved_prompt_redirect_frac),
        ),
        (Disposition.QUERY_DEEP, round(dying_total * config.query_deep_frac)),
        (Disposition.STAYS_ALIVE, config.n_links - dying_total),
    ]
    assignable = [
        (plan, link) for plan in plans for link in plan.links
    ]
    link_rng.shuffle(assignable)
    cursor = 0
    for disposition, quota in quotas:
        compatible_kinds = _DISPOSITION_SITE_KINDS[disposition]
        filled = 0
        index = 0
        while filled < quota and index < len(assignable):
            plan, link = assignable[index]
            if (
                link.disposition is Disposition.DIES
                and plan.kind in compatible_kinds
            ):
                link.disposition = disposition
                if disposition is Disposition.QUERY_DEEP:
                    link.isolated_directory = link_rng.chance(
                        config.isolated_directory_prob
                    )
                filled += 1
            index += 1
        cursor += filled

    return plans
