"""The Wayback CDX server API.

The CDX API enumerates captures matching a URL pattern — exact URL,
same directory, string prefix, or whole hostname — with optional
status filters and time bounds. The paper drives it for the §4.2
sibling-redirect validation ("other URLs under the same directory …
around that time") and the §5.2 spatial coverage analysis ("once to
discover successfully archived URLs which are in the same directory
... and once ... under the same hostname").
"""

from __future__ import annotations

import dataclasses
import enum
import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from itertools import compress

from ..clock import SimTime
from ..urls.parse import intern_url
from ..urls.psl import default_psl
from .snapshot import Observation, Snapshot
from .store import SnapshotStore


class MatchType(enum.Enum):
    """How the query URL is matched against archived URLs."""

    EXACT = "exact"
    DIRECTORY = "directory"  # same prefix until the last '/'
    PREFIX = "prefix"        # string prefix (includes subdirectories)
    HOST = "host"            # same hostname
    DOMAIN = "domain"        # same registrable domain (PSL)


@dataclass(frozen=True, slots=True)
class CdxQuery:
    """One CDX request.

    Attributes:
        url: the query URL (its directory/host are derived as needed).
        match_type: matching scope.
        initial_status: keep only captures with this initial status
            (``200`` reproduces the paper's "successfully archived").
        from_time / to_time: inclusive lower / exclusive upper capture
            time bounds.
        limit: maximum number of rows returned (0 = unlimited).
        exclude_self: for every scope but EXACT, drop captures of the
            query URL itself (the paper's sibling queries).
    """

    url: str
    match_type: MatchType = MatchType.EXACT
    initial_status: int | None = None
    from_time: SimTime | None = None
    to_time: SimTime | None = None
    limit: int = 0
    exclude_self: bool = False


class CdxRows(Sequence):
    """A CDX answer as three parallel columns: each row's URL, capture
    day and observation (the store's own reference), in answer order.

    Reading a row, by index or by iterating, builds its
    :class:`~repro.archive.snapshot.Snapshot` each time; its length,
    slices, :meth:`where` and the columns build none. Equal to any
    tuple (or other answer) of equal snapshots in the same order.
    """

    __slots__ = ("urls", "days", "observations")

    def __init__(self, urls: list, days: list, observations: list) -> None:
        self.urls = urls
        self.days = days
        self.observations = observations

    def __len__(self) -> int:
        return len(self.days)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return CdxRows(
                self.urls[index], self.days[index], self.observations[index]
            )
        day, observation = self.days[index], self.observations[index]
        return Snapshot(self.urls[index], SimTime(day), *observation)

    def __iter__(self) -> Iterator[Snapshot]:
        columns = zip(self.urls, self.days, self.observations)
        for url, day, observation in columns:
            yield Snapshot(url, SimTime(day), *observation)

    def __eq__(self, other) -> bool:
        if isinstance(other, (CdxRows, tuple)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def where(self, keep: Callable[[str, Observation], bool]) -> CdxRows:
        """The rows whose URL and observation pass ``keep``, in order."""
        mask = [keep(*row) for row in zip(self.urls, self.observations)]
        return CdxRows(
            list(compress(self.urls, mask)),
            list(compress(self.days, mask)),
            list(compress(self.observations, mask)),
        )


class AsOfCdx:
    """A CDX endpoint bounded at an instant (captures at or before it).

    The live pipeline re-probes records at per-record instants while
    the snapshot store keeps growing; an unbounded query issued when
    re-checking a cached outcome would see captures the original probe
    could not, making "incremental ≡ from-scratch" ill-defined. This
    view clamps every query's ``to_time`` to just past ``at``
    (``to_time`` is exclusive, so ``nextafter`` keeps captures exactly
    at ``at``), which freezes each record's archive horizon at its
    probe time.

    It wraps anything with the CDX call surface — the raw
    :class:`CdxApi` or a memoizing/fault-injecting backend stack — and
    clamps *before* delegating, so caches and fault decisions key on
    the clamped query: two runs probing the same record at the same
    instant issue byte-identical requests whatever else they ran.
    Deliberately **opt-in**: the classic batch study issues unclamped
    queries, whose reprs the committed fault-plan goldens key on.
    """

    def __init__(self, inner, at: SimTime) -> None:
        self._inner = inner
        self.at = at
        self._bound = SimTime(math.nextafter(at.days, math.inf))

    def _clamp(self, request: CdxQuery) -> CdxQuery:
        if request.to_time is None or self._bound < request.to_time:
            return dataclasses.replace(request, to_time=self._bound)
        return request

    def query(self, request: CdxQuery) -> CdxRows:
        return self._inner.query(self._clamp(request))

    def archived_urls(self, request: CdxQuery) -> tuple[str, ...]:
        return self._inner.archived_urls(self._clamp(request))


class CdxApi:
    """CDX queries over a snapshot store."""

    def __init__(self, store: SnapshotStore) -> None:
        self._store = store
        self._queries = 0

    @property
    def query_count(self) -> int:
        """Number of queries served (for efficiency accounting)."""
        return self._queries

    def query(self, request: CdxQuery) -> CdxRows:
        """All captures matching ``request``, ordered by URL then time.

        The rows come back as columns (see :class:`CdxRows`): the
        query itself builds no snapshot.
        """
        self._queries += 1
        urls: list[str] = []
        days: list[float] = []
        observations: list[Observation] = []
        for url in self._candidate_urls(request):
            for day, observation in self._matching(url, request):
                urls.append(url)
                days.append(day)
                observations.append(observation)
                if request.limit and len(days) >= request.limit:
                    return CdxRows(urls, days, observations)
        return CdxRows(urls, days, observations)

    def archived_urls(self, request: CdxQuery) -> tuple[str, ...]:
        """Distinct URLs with at least one capture matching ``request``.

        This is the collapsed (``collapse=urlkey``) form of a CDX query,
        which §5.2 uses to count archived siblings.
        """
        self._queries += 1
        urls = []
        for url in self._candidate_urls(request):
            # Each match is a non-empty pair, so ``any`` stops at the first.
            if any(self._matching(url, request)):
                urls.append(url)
                if request.limit and len(urls) >= request.limit:
                    break
        return tuple(urls)

    # -- internals ---------------------------------------------------------------

    def _candidate_urls(self, request: CdxQuery) -> tuple[str, ...]:
        if request.match_type is MatchType.EXACT:
            return (request.url,)
        parsed = intern_url(request.url)
        if request.match_type is MatchType.DIRECTORY:
            urls = self._store.urls_in_directory(parsed.directory)
        elif request.match_type is MatchType.DOMAIN:
            domain = default_psl().registrable_domain(parsed.host_lower)
            urls = self._store.urls_in_domain(domain)
        elif request.match_type is MatchType.PREFIX:
            # The real CDX server's matchType=prefix matches the query
            # URL *string* itself — not the query URL's directory,
            # which would make PREFIX indistinguishable from a
            # directory-anchored scope.
            urls = tuple(
                url
                for url in self._store.urls_on_host(parsed.host_lower)
                if url.startswith(request.url)
            )
        else:
            urls = self._store.urls_on_host(parsed.host_lower)
        if request.exclude_self:
            urls = tuple(url for url in urls if url != request.url)
        return urls

    def _matching(
        self, url: str, request: CdxQuery
    ) -> Iterator[tuple[float, Observation]]:
        """``url``'s non-failed ``(day, observation)`` captures inside
        the request's time bounds and status filter, in time order."""
        lo = -math.inf if request.from_time is None else request.from_time.days
        hi = math.inf if request.to_time is None else request.to_time.days
        status = request.initial_status
        for days, observation in self._store.captures(url, lo, hi):
            initial = observation[0]
            if initial is not None and (status is None or initial == status):
                yield days, observation
