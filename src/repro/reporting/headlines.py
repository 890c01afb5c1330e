"""The paper's headline numbers, each stated once.

Every comparison of this reproduction against the paper — the table
``python -m repro study`` and ``python -m repro calibrate`` print, and
the "Paper vs measured" section of the Markdown report — reads its
paper value and its measurement formula from :data:`HEADLINES`, and
grades it with :class:`~repro.reporting.summary.ComparisonRow`'s one
tolerance band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..net.status import Outcome
from .summary import ComparisonTable

#: Title of the headline table (shared by ``study`` and ``calibrate``).
HEADLINE_TITLE = "Headline numbers, paper vs measured"


@dataclass(frozen=True, slots=True)
class Headline:
    """One number the paper reports, and how a study measures it."""

    name: str
    paper: float
    measure: Callable[[object], float]
    """Percent measured on a :class:`~repro.analysis.study.StudyReport`."""
    report_label: str | None = None
    """Its row label in the Markdown report's "Paper vs measured"
    section; ``None`` leaves it out of that section."""


def _pct(part: int, whole: int) -> float:
    return 100 * part / max(whole, 1)


def _fig4(outcome: Outcome) -> Callable[[object], float]:
    return lambda r: _pct(r.counts[outcome], r.sample_size)


HEADLINES: tuple[Headline, ...] = (
    Headline(
        "fig4 DNS failure %", 28.0, _fig4(Outcome.DNS_FAILURE),
        report_label="fig4 DNS Failure %",
    ),
    Headline(
        "fig4 timeout %", 6.0, _fig4(Outcome.TIMEOUT),
        report_label="fig4 Timeout %",
    ),
    Headline(
        "fig4 404 %", 44.0, _fig4(Outcome.HTTP_404),
        report_label="fig4 404 %",
    ),
    Headline(
        "fig4 200 %", 16.5, _fig4(Outcome.HTTP_200),
        report_label="fig4 200 %",
    ),
    Headline(
        "fig4 other %", 5.5, _fig4(Outcome.OTHER),
        report_label="fig4 Other %",
    ),
    Headline(
        "s3 genuinely alive %", 3.05,
        lambda r: 100 * r.frac_genuinely_alive,
        report_label="genuinely alive %",
    ),
    Headline(
        "s3 alive-via-redirect %", 79.0,
        lambda r: 100 * r.frac_alive_via_redirect,
    ),
    Headline(
        "s3 first post-marking copy erroneous %", 95.0,
        lambda r: 100 * r.frac_first_post_marking_erroneous,
    ),
    Headline(
        "s4.1 pre-marking 200 copies %", 10.8,
        lambda r: 100 * r.frac_pre_marking_200,
        report_label="pre-marking 200 %",
    ),
    Headline(
        "s4.2 3xx copies, % of rest", 42.3,
        lambda r: _pct(r.n_rest_with_pre_3xx, r.n_rest),
        report_label="3xx of rest %",
    ),
    Headline(
        "s4.2 validated redirects, % of sample", 4.8,
        lambda r: 100 * r.frac_patchable_via_redirect,
    ),
    Headline(
        "s5 never archived, % of rest", 22.2,
        lambda r: _pct(r.n_never_archived, r.n_rest),
        report_label="never archived of rest %",
    ),
    Headline(
        "s5 pre-posting copies, % of archived", 8.9,
        lambda r: _pct(
            len(r.temporal.with_pre_posting_copy), r.n_rest_with_any_copy
        ),
    ),
    Headline(
        "s5 same-day captures, % of gap pop", 6.9,
        lambda r: _pct(
            len(r.temporal.same_day), len(r.temporal.gap_population)
        ),
    ),
    Headline(
        "s5 same-day erroneous first-up %", 61.0,
        lambda r: _pct(
            len(r.temporal.same_day_erroneous), len(r.temporal.same_day)
        ),
    ),
    Headline(
        "s5.2 directory gaps, % of never-archived", 37.8,
        lambda r: _pct(len(r.spatial.directory_gaps), r.n_never_archived),
    ),
    Headline(
        "s5.2 hostname gaps, % of never-archived", 12.9,
        lambda r: _pct(len(r.spatial.hostname_gaps), r.n_never_archived),
    ),
    Headline(
        "s5.2 typos, % of never-archived", 11.0,
        lambda r: _pct(len(r.typos), r.n_never_archived),
    ),
)


def headline_table(report) -> ComparisonTable:
    """Every headline, paper vs ``report``, under one band."""
    table = ComparisonTable(title=HEADLINE_TITLE)
    for headline in HEADLINES:
        table.add(headline.name, headline.paper, headline.measure(report))
    return table
