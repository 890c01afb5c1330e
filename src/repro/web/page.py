"""Page lifecycle model.

A page is identified by its path-and-query relative to its site. Its
observable behaviour depends on simulated time:

- before ``created_at`` (or always, for ``NEVER_EXISTED``): the site's
  missing-page policy applies;
- between ``created_at`` and ``died_at``: the page serves 200 with its
  article content;
- after ``died_at``: a ``DELETED`` page falls back to the missing-page
  policy; a ``MOVED`` page does too *until* ``redirect_added_at``,
  after which the server issues a 301 to the page's new URL.

The MOVED-with-late-redirect case is the mechanism behind the paper's
§3 finding that 3% of "permanently dead" links work again: IABot
checked during the window where the old URL errored, but by March 2022
the site had added the redirect.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..clock import SimTime, first_after


class PageFate(enum.Enum):
    """How a page's life ends (or fails to start)."""

    ALIVE = "alive"                  # still serving at the end of time
    DELETED = "deleted"              # removed; old URL errors forever
    MOVED = "moved"                  # relocated; redirect may appear later
    NEVER_EXISTED = "never_existed"  # the URL was a typo from day one


class PageStatus(enum.Enum):
    """What the server should do for this page at a given instant."""

    SERVES = "serves"          # 200 with article content
    MISSING = "missing"        # apply the site's missing-page policy
    REDIRECTS = "redirects"    # 301 to ``moved_to``


@dataclass(frozen=True, slots=True)
class Page:
    """One page's immutable lifecycle description.

    Attributes:
        path_query: path plus optional ``?query``, e.g.
            ``/news/2011/story.html`` or ``/view.php?id=42``.
        created_at: when the page first went live (meaningless for
            ``NEVER_EXISTED``).
        fate: how the lifecycle ends.
        died_at: when the page stopped serving (required for DELETED
            and MOVED).
        moved_to: absolute URL of the new location (MOVED only).
        redirect_added_at: when the site wired up the old-to-new
            redirect; ``None`` means it never did.
        redirect_removed_at: when a later restructuring dropped that
            redirect again (afterwards the old URL errors like any
            missing page). This is how a URL can have valid archived
            3xx copies (§4.2) yet be dead at both IABot's check and
            the study probe.
        revived_at: for DELETED pages, when the site restored the page
            at its original URL (the other way a "permanently dead"
            link comes back to life, §3); ``None`` means never.
    """

    path_query: str
    created_at: SimTime
    fate: PageFate = PageFate.ALIVE
    died_at: SimTime | None = None
    moved_to: str | None = None
    redirect_added_at: SimTime | None = None
    redirect_removed_at: SimTime | None = None
    revived_at: SimTime | None = None

    def __post_init__(self) -> None:
        if not self.path_query.startswith("/"):
            raise ValueError(f"path_query must start with '/': {self.path_query!r}")
        if self.fate in (PageFate.DELETED, PageFate.MOVED) and self.died_at is None:
            raise ValueError(f"{self.fate} requires died_at")
        if self.fate is PageFate.MOVED and not self.moved_to:
            raise ValueError("MOVED requires moved_to")
        if (
            self.redirect_added_at is not None
            and self.died_at is not None
            and self.redirect_added_at < self.died_at
        ):
            raise ValueError("redirect_added_at must not precede died_at")
        if self.revived_at is not None:
            if self.fate is not PageFate.DELETED:
                raise ValueError("revived_at only applies to DELETED pages")
            if self.died_at is not None and self.revived_at < self.died_at:
                raise ValueError("revived_at must not precede died_at")
        if self.redirect_removed_at is not None:
            if self.redirect_added_at is None:
                raise ValueError("redirect_removed_at needs redirect_added_at")
            if self.redirect_removed_at < self.redirect_added_at:
                raise ValueError("redirect cannot be removed before it is added")

    def status_at(self, at: SimTime) -> PageStatus:
        """The page's behaviour at instant ``at``."""
        fate = self.fate
        if fate is PageFate.NEVER_EXISTED:
            return PageStatus.MISSING
        days = at.days
        if days < self.created_at.days:
            return PageStatus.MISSING
        if fate is PageFate.ALIVE:
            return PageStatus.SERVES
        # DELETED and MOVED pages always have died_at (__post_init__).
        if days < self.died_at.days:
            return PageStatus.SERVES
        if (
            fate is PageFate.MOVED
            and self.redirect_added_at is not None
            and days >= self.redirect_added_at.days
            and (
                self.redirect_removed_at is None
                or days < self.redirect_removed_at.days
            )
        ):
            return PageStatus.REDIRECTS
        if (
            fate is PageFate.DELETED
            and self.revived_at is not None
            and days >= self.revived_at.days
        ):
            return PageStatus.SERVES
        return PageStatus.MISSING

    def next_change(self, at: SimTime) -> float:
        """Day number of the first lifecycle instant after ``at``.

        :meth:`status_at` is constant from ``at`` up to, but excluding,
        that instant; ``math.inf`` when no lifecycle instant follows.
        """
        return first_after(
            at,
            (
                self.created_at,
                self.died_at,
                self.redirect_added_at,
                self.redirect_removed_at,
                self.revived_at,
            ),
        )

    def alive_at(self, at: SimTime) -> bool:
        """Whether a GET at ``at`` would serve the original content."""
        return self.status_at(at) is PageStatus.SERVES

    def working_interval(self) -> tuple[SimTime, SimTime | None] | None:
        """[start, end) during which the page served 200, or None.

        ``end`` of ``None`` means it never stopped serving.
        """
        if self.fate is PageFate.NEVER_EXISTED:
            return None
        return (self.created_at, self.died_at)
