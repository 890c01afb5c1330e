"""Section 5.2's typo detection.

"We deem a permanently dead link to potentially be a typo if there
exists only one archived URL with an edit distance of exactly 1" under
the same registrable domain. A unique distance-1 neighbour strongly
suggests the user mangled one character of a real URL; multiple
near-neighbours usually mean a numeric page-id family, where a missing
page is indistinguishable from a typo.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..archive.cdx import CdxApi, CdxQuery, MatchType
from ..dataset.records import LinkRecord
from ..urls.editdist import unique_neighbor


@dataclass(frozen=True, slots=True)
class TypoFinding:
    """A never-archived link with a unique distance-1 archived sibling."""

    record: LinkRecord
    corrected_url: str


@dataclass
class TypoReport:
    """Aggregate typo-detection results."""

    findings: list[TypoFinding] = field(default_factory=list)
    examined: int = 0

    def __len__(self) -> int:
        return len(self.findings)


def find_typos(records: list[LinkRecord], cdx: CdxApi) -> TypoReport:
    """Scan never-archived links for unique distance-1 corrections.

    Only URLs with successfully archived copies qualify as correction
    candidates — the point is that the *intended* URL was real and
    archived while the posted one never existed.
    """
    report = TypoReport()
    for record in records:
        report.examined += 1
        candidates = cdx.archived_urls(
            CdxQuery(
                url=record.url,
                match_type=MatchType.DOMAIN,
                initial_status=200,
                exclude_self=True,
            )
        )
        match = unique_neighbor(record.url, candidates)
        if match is not None:
            report.findings.append(
                TypoFinding(record=record, corrected_url=match)
            )
    return report
