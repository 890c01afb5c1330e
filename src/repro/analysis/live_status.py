"""Section 3 / Figure 4: what do the links do on the live web today?

Every sampled URL gets one GET (with redirects); the outcome is
classified into DNS Failure / Timeout / 404 / 200 / Other, exactly the
paper's five buckets.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..clock import SimTime
from ..dataset.records import LinkRecord
from ..net.fetch import Fetcher, FetchResult
from ..net.status import FIGURE4_ORDER, Outcome


@dataclass(frozen=True, slots=True)
class LiveProbe:
    """One link's live-web probe result."""

    record: LinkRecord
    result: FetchResult

    @property
    def outcome(self) -> Outcome:
        """The probe's Figure 4 bucket."""
        return self.result.outcome

    @property
    def returned_200(self) -> bool:
        """Final status 200 (the §3 soft-404 screening population)."""
        return self.result.final_status == 200

    @property
    def redirected(self) -> bool:
        """Whether the probe followed at least one redirect."""
        return self.result.redirected


def classify_links(
    records: list[LinkRecord], fetcher: Fetcher, at: SimTime
) -> list[LiveProbe]:
    """Probe every link once at instant ``at``."""
    return [
        LiveProbe(record=record, result=fetcher.fetch(record.url, at))
        for record in records
    ]


def bucket_counts(labels: Iterable, order: Sequence) -> dict:
    """Histogram of ``labels``, presentation-ordered.

    Keys in ``order`` come first (zero when absent from ``labels``);
    labels outside ``order`` follow in first-seen order.
    """
    counts = dict.fromkeys(order, 0)
    # Counter tallies in C and keeps first-seen order for the extras.
    for label, n in Counter(labels).items():
        counts[label] = counts.get(label, 0) + n
    return counts


def outcome_counts(probes: list[LiveProbe]) -> dict[Outcome, int]:
    """Figure 4's bar heights, in presentation order.

    Outcomes outside :data:`FIGURE4_ORDER` (a future sixth bucket, a
    probe recorded by an older taxonomy) are appended after the
    presentation-ordered five rather than crashing the whole report.
    """
    return bucket_counts((probe.outcome for probe in probes), FIGURE4_ORDER)
