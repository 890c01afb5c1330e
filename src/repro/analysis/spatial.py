"""Section 5.2 / Figure 6: how isolated are the never-archived URLs?

For links with no archived copies at all, two CDX queries per link
measure the size of the coverage gap: how many *other* URLs in the
same directory, and under the same hostname, have successfully
archived (initial status 200) copies. Mostly-page-specific gaps mean
the archive knew the site but missed the page — usually because the
URL carries unbounded query parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..archive.cdx import CdxApi, CdxQuery, MatchType
from ..dataset.records import LinkRecord
from ..urls.parse import QueryArgs, intern_url


@dataclass(frozen=True, slots=True)
class SpatialRecord:
    """Coverage context of one never-archived link."""

    record: LinkRecord
    directory_neighbors: int
    hostname_neighbors: int
    query_param_count: int

    @property
    def directory_gap(self) -> bool:
        """No successfully archived URL shares the directory."""
        return self.directory_neighbors == 0

    @property
    def hostname_gap(self) -> bool:
        """No successfully archived URL shares the hostname."""
        return self.hostname_neighbors == 0


@dataclass
class SpatialReport:
    """Aggregate §5.2 coverage results."""

    records: list[SpatialRecord] = field(default_factory=list)

    @property
    def directory_counts(self) -> list[int]:
        """Figure 6's directory-level series."""
        return [r.directory_neighbors for r in self.records]

    @property
    def hostname_counts(self) -> list[int]:
        """Figure 6's hostname-level series."""
        return [r.hostname_neighbors for r in self.records]

    @property
    def directory_gaps(self) -> list[SpatialRecord]:
        """Links with zero dir-level coverage (the paper's 749)."""
        return [r for r in self.records if r.directory_gap]

    @property
    def hostname_gaps(self) -> list[SpatialRecord]:
        """Links with zero host-level coverage (the paper's 256)."""
        return [r for r in self.records if r.hostname_gap]

    @property
    def query_heavy(self) -> list[SpatialRecord]:
        """Links with 3+ query parameters (the unarchivable style)."""
        return [r for r in self.records if r.query_param_count >= 3]


def spatial_analysis(
    records: list[LinkRecord], cdx: CdxApi
) -> SpatialReport:
    """Run §5.2 over the never-archived links."""
    report = SpatialReport()
    for record in records:
        directory = cdx.archived_urls(
            CdxQuery(
                url=record.url,
                match_type=MatchType.DIRECTORY,
                initial_status=200,
                exclude_self=True,
            )
        )
        hostname = cdx.archived_urls(
            CdxQuery(
                url=record.url,
                match_type=MatchType.HOST,
                initial_status=200,
                exclude_self=True,
            )
        )
        params = len(QueryArgs.parse(intern_url(record.url).query))
        report.records.append(
            SpatialRecord(
                record=record,
                directory_neighbors=len(directory),
                hostname_neighbors=len(hostname),
                query_param_count=params,
            )
        )
    return report
