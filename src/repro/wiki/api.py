"""A MediaWiki-style query API over the encyclopedia.

The paper's collector did not hold Python references to article
objects — it paged through ``action=query`` endpoints: category
members (alphabetical, with continuation tokens), page wikitext, and
full revision histories. This facade reproduces those access patterns,
including pagination limits, so the collection pipeline exercises the
same mechanics (and the same ordering guarantees §2.4 relies on).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..clock import SimTime
from ..errors import WikiError
from .article import Revision
from .encyclopedia import Encyclopedia
from .events import LinkEvent, LinkPostedEvent

#: MediaWiki's default maximum batch size for most list queries.
DEFAULT_BATCH_LIMIT = 500


@dataclass(frozen=True, slots=True)
class CategoryMembersPage:
    """One page of category members plus the continuation token."""

    titles: tuple[str, ...]
    continue_token: str | None


@dataclass(frozen=True, slots=True)
class EventsPage:
    """One page of the lifecycle event feed plus the resume cursor.

    ``next_cursor`` is always valid to resume from, including when the
    page is empty (the feed caught up); ``more`` distinguishes "drained
    for now" from "another page is already waiting".
    """

    events: tuple[LinkEvent, ...]
    next_cursor: int
    more: bool


@dataclass(frozen=True, slots=True)
class RevisionsPage:
    """One page of a page's revision history (oldest first)."""

    revisions: tuple[Revision, ...]
    continue_token: str | None


class WikiApi:
    """Read-only query endpoints, MediaWiki flavoured."""

    def __init__(self, encyclopedia: Encyclopedia) -> None:
        self._enc = encyclopedia
        self.request_count = 0

    # -- category members (list=categorymembers) --------------------------------

    def category_members(
        self,
        category: str,
        limit: int = DEFAULT_BATCH_LIMIT,
        continue_token: str | None = None,
    ) -> CategoryMembersPage:
        """Alphabetical category members, paginated.

        The continuation token is the last title of the previous page
        (MediaWiki uses a sortkey; same semantics for our purposes).
        """
        self.request_count += 1
        limit = self._clamp_limit(limit)
        members = self._enc.articles_in_category(category)
        start = 0
        if continue_token is not None:
            # Titles strictly after the token.
            while start < len(members) and members[start] <= continue_token:
                start += 1
        batch = members[start: start + limit]
        next_token = (
            batch[-1] if start + limit < len(members) and batch else None
        )
        return CategoryMembersPage(titles=tuple(batch), continue_token=next_token)

    def all_category_members(self, category: str) -> tuple[str, ...]:
        """Convenience: drain the pagination."""
        titles: list[str] = []
        token: str | None = None
        while True:
            page = self.category_members(category, continue_token=token)
            titles.extend(page.titles)
            token = page.continue_token
            if token is None:
                return tuple(titles)

    # -- revision history (prop=revisions, rvdir=newer) -------------------------------

    def revisions(
        self,
        title: str,
        limit: int = DEFAULT_BATCH_LIMIT,
        continue_token: str | None = None,
    ) -> RevisionsPage:
        """A page's history oldest-first, paginated by revision id."""
        self.request_count += 1
        limit = self._clamp_limit(limit)
        history = self._enc.article(title).revisions
        start = 0
        if continue_token is not None:
            try:
                after_id = int(continue_token)
            except ValueError:
                raise WikiError(f"bad revisions continue token {continue_token!r}")
            while start < len(history) and history[start].revision_id <= after_id:
                start += 1
        batch = history[start: start + limit]
        next_token = (
            str(batch[-1].revision_id)
            if start + limit < len(history) and batch
            else None
        )
        return RevisionsPage(revisions=tuple(batch), continue_token=next_token)

    def all_revisions(self, title: str) -> tuple[Revision, ...]:
        """Convenience: drain the history pagination."""
        revisions: list[Revision] = []
        token: str | None = None
        while True:
            page = self.revisions(title, continue_token=token)
            revisions.extend(page.revisions)
            token = page.continue_token
            if token is None:
                return tuple(revisions)

    # -- recent changes flavoured helpers --------------------------------------------

    def link_posted_events_since(self, since: SimTime):
        """Link-posted events at or after ``since`` (EventStream style).

        Boundary semantics are load-bearing and pinned by tests:
        ``since`` is **inclusive** (an event exactly at ``since`` is
        returned — resuming from the last seen timestamp re-delivers
        that instant rather than dropping equal-time siblings), and
        events with equal timestamps keep their **emission order** (the
        log is append-only; filtering never reorders).
        """
        self.request_count += 1
        return tuple(
            event
            for event in self._enc.events.events()
            if isinstance(event, LinkPostedEvent)
            and not event.posted_at < since
        )

    def events_since(
        self, cursor: int = 0, limit: int = DEFAULT_BATCH_LIMIT
    ) -> EventsPage:
        """The lifecycle event feed from an integer cursor.

        Timestamp-based resumption (``link_posted_events_since``) is
        lossy at the boundary instant; the cursor is exact — it is the
        count of events already consumed, so consecutive drains from
        the returned ``next_cursor`` partition the log with no gap and
        no overlap, at any page size.
        """
        self.request_count += 1
        limit = self._clamp_limit(limit)
        events, next_cursor = self._enc.events.events_since(cursor, limit)
        return EventsPage(
            events=events,
            next_cursor=next_cursor,
            more=next_cursor < self._enc.events.cursor,
        )

    @staticmethod
    def _clamp_limit(limit: int) -> int:
        if limit < 1:
            raise WikiError("limit must be >= 1")
        return min(limit, DEFAULT_BATCH_LIMIT)
