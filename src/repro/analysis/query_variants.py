"""Query-parameter-reordering recovery (§5.2, implication b).

For never-archived URLs that carry many query parameters, the paper
suggests "looking for archived URLs which are identical except that
they include the query parameters in a different order". Different
orderings are distinct strings (so exact Wayback lookups miss them)
but name the same resource on virtually every server.

This module implements that recovery: canonicalise the query (sorted
key/value pairs) and scan the archived URLs of the same directory for
an order-insensitive match.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..archive.cdx import CdxApi, CdxQuery, MatchType
from ..dataset.records import LinkRecord
from ..errors import UrlError
from ..urls.parse import QueryArgs, intern_url


@dataclass(frozen=True, slots=True)
class VariantFinding:
    """A never-archived URL whose reordered twin is archived."""

    record: LinkRecord
    archived_variant: str


@dataclass
class VariantReport:
    """Aggregate results of the reordered-parameter scan."""

    findings: list[VariantFinding] = field(default_factory=list)
    examined: int = 0
    with_query: int = 0

    def __len__(self) -> int:
        return len(self.findings)


def canonical_key(url: str) -> tuple[str, tuple[tuple[str, str], ...]] | None:
    """(directory+path, sorted query pairs) — order-insensitive identity.

    ``None`` for unparseable URLs.
    """
    try:
        parsed = intern_url(url)
    except UrlError:
        return None
    base = f"{parsed.scheme}://{parsed.host_lower}{parsed.path}"
    return base, QueryArgs.parse(parsed.query).canonical()


def find_reordered_variants(
    records: list[LinkRecord], cdx: CdxApi
) -> VariantReport:
    """Scan never-archived links for archived reordered-query twins."""
    report = VariantReport()
    for record in records:
        report.examined += 1
        try:
            parsed = intern_url(record.url)
        except UrlError:
            continue
        if not parsed.query:
            continue
        report.with_query += 1
        wanted = canonical_key(record.url)
        candidates = cdx.archived_urls(
            CdxQuery(
                url=record.url,
                match_type=MatchType.DIRECTORY,
                initial_status=200,
                exclude_self=True,
            )
        )
        for candidate in candidates:
            if candidate != record.url and canonical_key(candidate) == wanted:
                report.findings.append(
                    VariantFinding(record=record, archived_variant=candidate)
                )
                break
    return report
