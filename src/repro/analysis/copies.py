"""Section 4.1: what archived copies existed before a link was marked?

IABot marks a link permanently dead when it finds no archived copy
whose initial status was 200 — which, because of bounded availability
lookups, "does not mean that there are no archived copies for that
link". The census splits each link's capture history at its marking
date and records what was actually there.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

from ..archive.cdx import CdxApi, CdxQuery, CdxRows, MatchType
from ..archive.snapshot import Snapshot
from ..dataset.records import LinkRecord
from ..net.status import is_redirect


@dataclass(frozen=True, slots=True)
class CopyCensus:
    """One link's archived-copy history, split at its marking date.

    ``rows`` is the link's exact CDX answer as columns (capture days
    and observation references, in time order), and its first
    ``split`` rows predate the marking. Every count reads the columns;
    a :class:`~repro.archive.snapshot.Snapshot` is built only for a
    copy a caller takes.
    """

    record: LinkRecord
    rows: CdxRows
    split: int

    @property
    def pre_marking(self) -> CdxRows:
        """Captures before the marking, in time order."""
        return self.rows[: self.split]

    @property
    def post_marking(self) -> CdxRows:
        """Captures at or after the marking, in time order."""
        return self.rows[self.split:]

    @property
    def has_any_copy(self) -> bool:
        """Whether the archive ever captured the link at all."""
        return bool(self.rows)

    @property
    def pre_marking_3xx(self) -> CdxRows:
        """Copies IABot conservatively refused to use (§4.2)."""
        return self.pre_marking.where(lambda _, seen: is_redirect(seen[0]))

    @property
    def has_pre_marking_200(self) -> bool:
        """Whether a usable (initial-200) copy predates the marking (§4.1)."""
        return any(
            observation[0] == 200
            for observation in islice(self.rows.observations, self.split)
        )

    @property
    def has_pre_marking_3xx(self) -> bool:
        """Whether a redirect copy predates the marking."""
        return any(
            is_redirect(observation[0])
            for observation in islice(self.rows.observations, self.split)
        )

    @property
    def first_snapshot(self) -> Snapshot | None:
        """The earliest capture ever, or None."""
        return self.rows[0] if self.rows else None

    @property
    def first_post_marking(self) -> Snapshot | None:
        """The earliest capture at or after the marking, or None."""
        return self.rows[self.split] if self.split < len(self.rows) else None


def census_link(record: LinkRecord, cdx: CdxApi) -> CopyCensus:
    """Full capture history of one link via one exact CDX query."""
    rows = cdx.query(CdxQuery(url=record.url, match_type=MatchType.EXACT))
    split = bisect_left(rows.days, record.marked_at.days)
    return CopyCensus(record=record, rows=rows, split=split)


def census_links(records: list[LinkRecord], cdx: CdxApi) -> list[CopyCensus]:
    """Censuses for the whole dataset, in input order."""
    return [census_link(record, cdx) for record in records]
