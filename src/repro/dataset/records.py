"""Link records: what the collector knows about each studied link.

A :class:`LinkRecord` holds exactly the fields §2.4 extracts — URL,
article, date added, date marked, marker username — plus derived URL
structure (hostname, registrable domain, directory) that the analyses
group by. Nothing here comes from generator ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..clock import SimTime
from ..urls.parse import intern_url
from ..urls.psl import default_psl


@dataclass(frozen=True, slots=True)
class LinkRecord:
    """One permanently-dead link in the study dataset."""

    url: str
    article_title: str
    posted_at: SimTime
    marked_at: SimTime
    marked_by: str
    site_ranking: int | None = None

    @property
    def hostname(self) -> str:
        """Hostname per the paper's definition (lowercased, no port)."""
        return intern_url(self.url).host_lower

    @property
    def domain(self) -> str:
        """Registrable domain via the Public Suffix List."""
        return default_psl().registrable_domain(self.hostname)

    @property
    def directory(self) -> str:
        """URL prefix until the last '/'."""
        return intern_url(self.url).directory


@dataclass
class Dataset:
    """A collection of link records plus provenance."""

    records: list[LinkRecord] = field(default_factory=list)
    description: str = ""

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def urls(self) -> list[str]:
        """Every record's URL, in dataset order."""
        return [record.url for record in self.records]

    def domains(self) -> dict[str, int]:
        """URL count per registrable domain (Figure 3a's quantity)."""
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.domain] = counts.get(record.domain, 0) + 1
        return counts

    def hostnames(self) -> set[str]:
        """Distinct hostnames across the dataset."""
        return {record.hostname for record in self.records}

    def posting_years(self) -> list[float]:
        """Fractional posting year per record (Figure 3c's quantity)."""
        return [record.posted_at.fractional_year() for record in self.records]

    def rankings(self) -> list[int]:
        """Site rankings where known (Figure 3b's quantity)."""
        return [
            record.site_ranking
            for record in self.records
            if record.site_ranking is not None
        ]
