"""The link lifecycle event stream.

The Internet Archive learned about new Wikipedia external links from
the Wikipedia Near Real Time service (2013-2018) and the Wikipedia
EventStream (2018-). In the simulation, the encyclopedia emits a
:class:`LinkPostedEvent` whenever an edit introduces a URL that the
previous revision of the article did not reference; the archive's
triggered crawler subscribes to this log.

The live pipeline (:mod:`repro.live`) widens the vocabulary to the
full link lifecycle: :class:`LinkMarkedDeadEvent` when a reference
first carries a dead-link annotation, and :class:`LinkRemovedEvent`
when an edit drops a URL the previous revision referenced. All three
share the ``url`` / ``article_title`` / ``at`` surface so consumers
can fold them uniformly.

The log itself is append-only and **position-addressed**: an integer
cursor (the count of events already consumed) is an exact, stable
resume point — equal-timestamp events keep their emission order, so
two drains from the same cursor see the same suffix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..clock import SimTime
from ..errors import EventLogError

__all__ = [
    "EventLog",
    "LinkEvent",
    "LinkMarkedDeadEvent",
    "LinkPostedEvent",
    "LinkRemovedEvent",
]


@dataclass(frozen=True, slots=True)
class LinkPostedEvent:
    """A URL newly referenced by an article."""

    url: str
    article_title: str
    posted_at: SimTime

    @property
    def at(self) -> SimTime:
        """Uniform timestamp accessor across event kinds."""
        return self.posted_at


@dataclass(frozen=True, slots=True)
class LinkMarkedDeadEvent:
    """A reference first annotated ``{{dead link}}`` on an article."""

    url: str
    article_title: str
    marked_at: SimTime
    marked_by: str

    @property
    def at(self) -> SimTime:
        return self.marked_at


@dataclass(frozen=True, slots=True)
class LinkRemovedEvent:
    """A URL the previous revision referenced and this edit dropped."""

    url: str
    article_title: str
    removed_at: SimTime

    @property
    def at(self) -> SimTime:
        return self.removed_at


LinkEvent = Union[LinkPostedEvent, LinkMarkedDeadEvent, LinkRemovedEvent]


class EventLog:
    """Append-only, position-addressed log of link lifecycle events.

    ``events_for`` answers from a URL-keyed index maintained in
    :meth:`append` (the live pipeline polls it per dirty URL, so the
    old full-log scan would be O(log x dirty) per generation);
    :meth:`verify_index` is the micro-assertion that the index and a
    fresh scan agree, for tests and paranoid callers.
    """

    def __init__(self) -> None:
        self._events: list[LinkEvent] = []
        self._by_url: dict[str, list[int]] = {}

    def append(self, event: LinkEvent) -> None:
        """Record one event and index it by URL."""
        position = len(self._events)
        self._events.append(event)
        positions = self._by_url.setdefault(event.url, [])
        positions.append(position)
        if self._events[positions[-1]] is not event:
            raise EventLogError(f"index for {event.url!r} missed position {position}")

    def events(self) -> tuple[LinkEvent, ...]:
        """All events in emission order."""
        return tuple(self._events)

    def events_for(self, url: str) -> tuple[LinkEvent, ...]:
        """Events for one URL (a URL can be posted on many articles).

        Answered from the URL index — emission order is preserved
        because positions are appended in emission order.
        """
        return tuple(
            self._events[position] for position in self._by_url.get(url, ())
        )

    def events_since(
        self, cursor: int, limit: int | None = None
    ) -> tuple[tuple[LinkEvent, ...], int]:
        """Events from ``cursor`` onward, and the next cursor.

        ``cursor`` is the count of events already consumed (0 = from
        the beginning). Returns at most ``limit`` events; the second
        element is the cursor to resume from, ``cursor + len(batch)``.
        """
        if cursor < 0 or cursor > len(self._events):
            raise ValueError(
                f"cursor {cursor} out of range [0, {len(self._events)}]"
            )
        end = len(self._events) if limit is None else min(
            len(self._events), cursor + limit
        )
        return tuple(self._events[cursor:end]), end

    @property
    def cursor(self) -> int:
        """The cursor positioned after the last event appended."""
        return len(self._events)

    def verify_index(self) -> None:
        """Check the URL index agrees with a full-log scan.

        Raises :class:`~repro.errors.EventLogError` on any disagreement
        (a typed error, not an ``assert``, so the check also runs under
        ``python -O``).
        """
        scanned: dict[str, list[int]] = {}
        for position, event in enumerate(self._events):
            scanned.setdefault(event.url, []).append(position)
        if scanned != self._by_url:
            raise EventLogError("EventLog URL index out of sync")
        for url in scanned:
            if self.events_for(url) != tuple(
                event for event in self._events if event.url == url
            ):
                raise EventLogError(
                    f"indexed answer for {url!r} disagrees with scan"
                )

    def __len__(self) -> int:
        return len(self._events)
