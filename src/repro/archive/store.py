"""The snapshot store: all captures, indexed three ways.

Indices match the access patterns of the two public APIs:

- by exact URL (Availability API, CDX exact queries);
- by directory prefix (CDX prefix queries — §4.2 sibling-redirect
  validation and §5.2 directory-level coverage);
- by hostname (CDX host queries — §5.2 hostname-level coverage).

Snapshots for a URL are kept sorted by capture time, so closest-to-
timestamp selection (IABot's snapshot choice) and first/last lookups
are cheap.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from ..clock import SimTime
from ..urls.parse import parse_url
from ..urls.psl import default_psl
from .snapshot import Snapshot


class SnapshotStore:
    """In-memory archive of :class:`~repro.archive.snapshot.Snapshot`."""

    def __init__(self) -> None:
        self._by_url: dict[str, list[Snapshot]] = {}
        self._by_directory: dict[str, set[str]] = {}
        self._by_host: dict[str, set[str]] = {}
        self._by_domain: dict[str, set[str]] = {}
        self._count = 0

    # -- writes ------------------------------------------------------------------

    def add(self, snapshot: Snapshot) -> None:
        """Insert one capture, maintaining all indices."""
        per_url = self._by_url.get(snapshot.url)
        if per_url is None:
            per_url = []
            self._by_url[snapshot.url] = per_url
            parsed = parse_url(snapshot.url)
            self._by_directory.setdefault(parsed.directory, set()).add(snapshot.url)
            self._by_host.setdefault(parsed.host_lower, set()).add(snapshot.url)
            domain = default_psl().registrable_domain(parsed.host_lower)
            self._by_domain.setdefault(domain, set()).add(snapshot.url)
        if per_url and per_url[-1].captured_at.days > snapshot.captured_at.days:
            insort(per_url, snapshot, key=lambda s: s.captured_at.days)
        else:
            # Captures arrive in time order during replay; appending is
            # exactly insort's placement (after every equal timestamp).
            per_url.append(snapshot)
        self._count += 1

    # -- per-URL reads ------------------------------------------------------------

    def snapshots(
        self, url: str, include_failed: bool = False
    ) -> tuple[Snapshot, ...]:
        """All captures of ``url`` in time order."""
        rows = self._by_url.get(url, [])
        if include_failed:
            return tuple(rows)
        return tuple(row for row in rows if not row.failed)

    def has_any(self, url: str) -> bool:
        """Whether the archive holds at least one (non-failed) capture."""
        return any(not row.failed for row in self._by_url.get(url, ()))

    def first_snapshot(self, url: str) -> Snapshot | None:
        """The earliest capture of ``url``, if any."""
        rows = self.snapshots(url)
        return rows[0] if rows else None

    def snapshots_before(self, url: str, cutoff: SimTime) -> tuple[Snapshot, ...]:
        """Captures strictly before ``cutoff``, in time order."""
        rows = self.snapshots(url)
        index = bisect_left([row.captured_at.days for row in rows], cutoff.days)
        return rows[:index]

    def snapshots_after(self, url: str, cutoff: SimTime) -> tuple[Snapshot, ...]:
        """Captures at or after ``cutoff``, in time order."""
        rows = self.snapshots(url)
        index = bisect_left([row.captured_at.days for row in rows], cutoff.days)
        return rows[index:]

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
        return tuple(sorted(self._by_domain.get(domain.lower(), ())))

    def all_urls(self) -> tuple[str, ...]:
        """Every URL with at least one capture (sorted)."""
        return tuple(sorted(self._by_url))

    # -- stats -----------------------------------------------------------------------------

    def __len__(self) -> int:
        """Total number of captures stored."""
        return self._count

    def url_count(self) -> int:
        """Number of distinct URLs captured."""
        return len(self._by_url)
