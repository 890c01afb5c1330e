"""The snapshot store: all captures, indexed three ways.

Indices match the access patterns of the two public APIs:

- by exact URL (Availability API, CDX exact queries);
- by directory prefix (CDX prefix queries — §4.2 sibling-redirect
  validation and §5.2 directory-level coverage);
- by hostname (CDX host queries — §5.2 hostname-level coverage), with
  each registrable domain naming its hostnames (CDX domain queries).

Each URL's captures are kept as two parallel columns sorted by capture
time: the capture days, and a reference to what each capture observed
(an :data:`~repro.archive.snapshot.Observation`). Every capture inside
one freshness run of the crawler shares one observation tuple, so a
capture costs two list appends. Reads answer from the columns:
:meth:`SnapshotStore.captures` bisects the day column for a time
window, and the APIs scan its observations and build a
:class:`~repro.archive.snapshot.Snapshot` only for a row they return.
The store itself holds no snapshots.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from itertools import islice

from ..clock import SimTime
from ..urls.parse import intern_url
from ..urls.psl import default_psl
from .snapshot import Observation, Snapshot, observation_of


class _Captures:
    """One URL's capture columns."""

    __slots__ = ("days", "observations")

    def __init__(self) -> None:
        #: Capture days, ascending; equal days keep arrival order.
        self.days: list[float] = []
        #: What each capture observed, parallel to :attr:`days`.
        self.observations: list[Observation] = []


class SnapshotStore:
    """In-memory archive of :class:`~repro.archive.snapshot.Snapshot`."""

    def __init__(self) -> None:
        self._by_url: dict[str, _Captures] = {}
        self._by_directory: dict[str, set[str]] = {}
        self._by_host: dict[str, set[str]] = {}
        #: ``registrable domain -> its hostnames`` (one PSL read a host).
        self._hosts_in_domain: dict[str, list[str]] = {}

    # -- writes ------------------------------------------------------------------

    def record(self, url: str, days: float, observation: Observation) -> None:
        """Insert one capture of ``url`` at day ``days``.

        ``observation`` must already be valid (see
        :func:`~repro.archive.snapshot.check_observation`); the store
        keeps a reference to it, not a copy.
        """
        captures = self._by_url.get(url)
        if captures is None:
            captures = self._by_url[url] = _Captures()
            parsed = intern_url(url)
            self._by_directory.setdefault(parsed.directory, set()).add(url)
            host = parsed.host_lower
            on_host = self._by_host.get(host)
            if on_host is None:
                on_host = self._by_host[host] = set()
                domain = default_psl().registrable_domain(host)
                self._hosts_in_domain.setdefault(domain, []).append(host)
            on_host.add(url)
        column = captures.days
        if column and column[-1] > days:
            # After every capture with an equal day, as ``insort`` puts it.
            index = bisect_right(column, days)
            column.insert(index, days)
            captures.observations.insert(index, observation)
        else:
            # Captures arrive in time order during generation's crawl.
            column.append(days)
            captures.observations.append(observation)

    def add(self, snapshot: Snapshot) -> None:
        """Insert one capture a caller already holds as a snapshot."""
        self.record(
            snapshot.url, snapshot.captured_at.days, observation_of(snapshot)
        )

    # -- per-URL reads ------------------------------------------------------------

    def captures(
        self, url: str, lo: float = -math.inf, hi: float = math.inf
    ) -> Iterator[tuple[float, Observation]]:
        """``url``'s captures with ``lo <= day < hi`` as ``(day,
        observation)`` pairs in time order, failed captures included.

        The pairs are read lazily from the live columns, so a caller
        that stops at its first match copies nothing; finish reading
        before the next write to ``url``.
        """
        captures = self._by_url.get(url)
        if captures is None:
            return iter(())
        days = captures.days
        return islice(
            zip(days, captures.observations),
            bisect_left(days, lo),
            bisect_left(days, hi),
        )

    def snapshots(
        self, url: str, include_failed: bool = False
    ) -> tuple[Snapshot, ...]:
        """All captures of ``url`` in time order, built on each call."""
        return tuple(
            Snapshot(url, SimTime(days), *observation)
            for days, observation in self.captures(url)
            if include_failed or observation[0] is not None
        )

    # -- spatial reads ----------------------------------------------------------------

    def urls_in_directory(self, directory: str) -> tuple[str, ...]:
        """All archived URLs sharing ``directory`` (prefix until last '/')."""
        return tuple(sorted(self._by_directory.get(directory, ())))

    def urls_on_host(self, hostname: str) -> tuple[str, ...]:
        """All archived URLs under ``hostname``."""
        return tuple(sorted(self._by_host.get(hostname.lower(), ())))

    def urls_in_domain(self, domain: str) -> tuple[str, ...]:
        """All archived URLs whose hostname registers under ``domain``."""
        hosts = self._hosts_in_domain.get(domain.lower(), ())
        return tuple(
            sorted(url for host in hosts for url in self._by_host[host])
        )

    def all_urls(self) -> tuple[str, ...]:
        """Every URL with at least one capture (sorted)."""
        return tuple(sorted(self._by_url))

    # -- stats -----------------------------------------------------------------------------

    def __len__(self) -> int:
        """Total number of captures stored."""
        return sum(len(captures.days) for captures in self._by_url.values())

    def url_count(self) -> int:
        """Number of distinct URLs captured."""
        return len(self._by_url)
