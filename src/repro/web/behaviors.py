"""Site-level server behaviours.

Two orthogonal knobs shape what a broken URL looks like from outside:

- :class:`MissingPagePolicy` — what the server does for a path it has
  no page for. Real sites differ here, and the differences are exactly
  what separates honest 404s from the soft-404s and erroneous
  redirections the paper has to detect (§3, §4.2).
- :class:`SiteState` — whole-site conditions layered on top: parked by
  a squatter, geo-blocked at the measurement vantage point, flaky
  connectivity, scheduled outages.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from ..clock import SimTime, first_after


class MissingPagePolicy(enum.Enum):
    """What a site serves for a URL it has no content for."""

    HARD_404 = "hard_404"
    """Honest 404 status with the site's error page."""

    SOFT_404 = "soft_404"
    """200 status, but the body is the site's error page. The classic
    soft-404 that status-code-only checkers mistake for alive."""

    REDIRECT_HOME = "redirect_home"
    """302 to the site homepage — the paper's canonical *erroneous*
    redirection ("the old URL for a news article might redirect to the
    news site's homepage")."""

    REDIRECT_LOGIN = "redirect_login"
    """302 to the site's login page. The §3 detector special-cases
    this: identical redirect targets don't imply brokenness when the
    target is a login wall."""

    REDIRECT_OFFSITE = "redirect_offsite"
    """302 to an unrelated site (cf. baku2017.com -> goalku.com). The
    target URL is site configuration."""


class GeoPolicy(enum.Enum):
    """Whether the measurement vantage point can reach the site."""

    OPEN = "open"
    BLOCKED_403 = "blocked_403"   # explicit geo-block response
    BLOCKED_TIMEOUT = "blocked_timeout"  # silently dropped connections


@dataclass(frozen=True, slots=True)
class OutageWindow:
    """A [start, end) interval during which the site returns 503."""

    start: SimTime
    end: SimTime

    def __post_init__(self) -> None:
        if not self.start < self.end:
            raise ValueError("outage window must have start < end")

    def covers(self, at: SimTime) -> bool:
        """Whether the outage window contains instant ``at``."""
        return not at < self.start and at < self.end


@dataclass(frozen=True, slots=True)
class SiteState:
    """Whole-site conditions, checked before any page lookup.

    Attributes:
        parked_from: if set, from this instant every path returns 200
            with parked-domain content (a squatter re-registered the
            name).
        geo: reachability from the measurement vantage point.
        geo_from: when the geo policy takes effect (immediately if
            ``None`` and the policy is not OPEN).
        timeout_probability: per-request chance of a connection
            timeout, modelling chronically flaky hosting.
        outages: 503 windows.
    """

    parked_from: SimTime | None = None
    geo: GeoPolicy = GeoPolicy.OPEN
    geo_from: SimTime | None = None
    timeout_probability: float = 0.0
    outages: tuple[OutageWindow, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not 0.0 <= self.timeout_probability <= 1.0:
            raise ValueError("timeout_probability must be in [0, 1]")

    def parked_at(self, at: SimTime) -> bool:
        """Whether the squatter's lander is up at instant ``at``."""
        return self.parked_from is not None and at.days >= self.parked_from.days

    def geo_active_at(self, at: SimTime) -> bool:
        """Whether the geo-block affects the vantage at ``at``."""
        if self.geo is GeoPolicy.OPEN:
            return False
        if self.geo_from is None:
            return True
        return at.days >= self.geo_from.days

    def outage_at(self, at: SimTime) -> bool:
        """Whether any outage window covers instant ``at``."""
        for window in self.outages:
            if window.covers(at):
                return True
        return False

    def next_change(self, at: SimTime) -> float:
        """Day number of the first instant after ``at`` the state can change.

        The instants are ``parked_from``, ``geo_from``, each outage's
        start and end and, on a flaky site, the next integer day, when
        the timeout draw changes. ``math.inf`` when none follows.
        """
        instants = [self.parked_from, self.geo_from]
        for window in self.outages:
            instants += (window.start, window.end)
        until = first_after(at, instants)
        if self.timeout_probability > 0.0:
            until = min(until, math.floor(at.days) + 1.0)
        return until
