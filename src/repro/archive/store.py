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
capture costs two list appends. A URL's
:class:`~repro.archive.snapshot.Snapshot` objects are built on its
first read and kept until the next write to that URL, which makes
closest-to-timestamp selection (IABot's snapshot choice) and
first/last lookups cheap after the first.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from ..clock import SimTime
from ..urls.parse import intern_url
from ..urls.psl import default_psl
from .snapshot import Observation, Snapshot, observation_of


class _Captures:
    """One URL's capture columns plus its snapshots, once built."""

    __slots__ = ("days", "observations", "rows", "served")

    def __init__(self) -> None:
        #: Capture days, ascending; equal days keep arrival order.
        self.days: list[float] = []
        #: What each capture observed, parallel to :attr:`days`.
        self.observations: list[Observation] = []
        #: Every capture as a snapshot (failed ones included), or
        #: ``None`` until read.
        self.rows: tuple[Snapshot, ...] | None = None
        #: :attr:`rows` without failed captures, or ``None`` until read.
        self.served: tuple[Snapshot, ...] | None = None


def _days_of(snapshot: Snapshot) -> float:
    return snapshot.captured_at.days


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
        captures.rows = captures.served = None

    def add(self, snapshot: Snapshot) -> None:
        """Insert one capture a caller already holds as a snapshot."""
        self.record(
            snapshot.url, snapshot.captured_at.days, observation_of(snapshot)
        )

    # -- per-URL reads ------------------------------------------------------------

    @staticmethod
    def _rows(captures: _Captures, url: str) -> tuple[Snapshot, ...]:
        """Every capture of ``url`` as a snapshot, built on first call."""
        rows = captures.rows
        if rows is None:
            rows = captures.rows = tuple(
                Snapshot(url, SimTime(days), *observation)
                for days, observation in zip(
                    captures.days, captures.observations
                )
            )
        return rows

    def snapshots(
        self, url: str, include_failed: bool = False
    ) -> tuple[Snapshot, ...]:
        """All captures of ``url`` in time order."""
        captures = self._by_url.get(url)
        if captures is None:
            return ()
        if include_failed:
            return self._rows(captures, url)
        served = captures.served
        if served is None:
            served = captures.served = tuple(
                row for row in self._rows(captures, url) if not row.failed
            )
        return served

    def has_any(self, url: str) -> bool:
        """Whether the archive holds at least one (non-failed) capture."""
        return bool(self.snapshots(url))

    def first_snapshot(self, url: str) -> Snapshot | None:
        """The earliest capture of ``url``, if any."""
        rows = self.snapshots(url)
        return rows[0] if rows else None

    def snapshots_before(self, url: str, cutoff: SimTime) -> tuple[Snapshot, ...]:
        """Captures strictly before ``cutoff``, in time order."""
        rows = self.snapshots(url)
        return rows[: bisect_left(rows, cutoff.days, key=_days_of)]

    def snapshots_after(self, url: str, cutoff: SimTime) -> tuple[Snapshot, ...]:
        """Captures at or after ``cutoff``, in time order."""
        rows = self.snapshots(url)
        return rows[bisect_left(rows, cutoff.days, key=_days_of):]

    def closest_to(
        self,
        url: str,
        target: SimTime,
        predicate=None,
    ) -> Snapshot | None:
        """The capture of ``url`` nearest ``target``, optionally filtered.

        This is the Wayback Availability API's selection rule and the
        one IABot uses to pick "that archived copy for the link which
        was captured closest to when the link was added" (§2.1).
        """
        rows = self.snapshots(url)
        if predicate is not None:
            rows = tuple(row for row in rows if predicate(row))
        if not rows:
            return None
        return min(rows, key=lambda row: abs(row.captured_at.days - target.days))

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
