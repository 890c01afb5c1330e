"""Render a complete study as a standalone Markdown document.

One call turns a :class:`~repro.analysis.study.StudyReport` into the
full write-up — dataset characterisation, every figure (as ASCII
plots in fenced blocks), every headline table, and the paper-vs-
measured comparison — suitable for committing next to EXPERIMENTS.md
or attaching to a run.
"""

from __future__ import annotations

from .cdf import ecdf
from .figures import render_bar_chart
from .headlines import HEADLINES
from .plot import ascii_cdf_plot
from .summary import ComparisonTable


def render_markdown_report(report, title: str = "Study report") -> str:
    """The full study as Markdown."""
    sections = [
        f"# {title}",
        _dataset_section(report),
        _figure3_section(report),
        _figure4_section(report),
        _section3(report),
        _section4(report),
        _section5(report),
        _comparison_section(report),
    ]
    return "\n\n".join(sections) + "\n"


def _code(block: str) -> str:
    return f"```\n{block}\n```"


def _dataset_section(report) -> str:
    ds = report.dataset
    return (
        "## Dataset\n\n"
        f"- permanently dead links studied: **{report.sample_size}**\n"
        f"- registrable domains: {len(ds.domains())}\n"
        f"- hostnames: {len(ds.hostnames())}\n"
        f"- posting years: {min(ds.posting_years()):.1f} - "
        f"{max(ds.posting_years()):.1f}"
    )


def _figure3_section(report) -> str:
    ds = report.dataset
    domain_plot = ascii_cdf_plot(
        {"dataset": ecdf(list(ds.domains().values()))},
        "Figure 3(a): URLs per domain (CDF across domains)",
        "urls per domain",
        log_x=True,
    )
    year_plot = ascii_cdf_plot(
        {"dataset": ecdf(ds.posting_years())},
        "Figure 3(c): posting year (CDF across URLs)",
        "year",
    )
    return "## Figure 3 — dataset characterisation\n\n" + _code(
        domain_plot
    ) + "\n\n" + _code(year_plot)


def _figure4_section(report) -> str:
    chart = render_bar_chart(
        {o.value: c for o, c in report.counts.items()},
        f"Figure 4: live-web outcomes (n={report.sample_size})",
    )
    return "## Figure 4 — live-web status today\n\n" + _code(chart)


def _section3(report) -> str:
    return (
        "## §3 — are permanently dead links indeed dead?\n\n"
        f"- links answering 200 today: **{report.n_final_200}** "
        f"({report.frac_final_200:.1%})\n"
        f"- genuinely functional after soft-404 screening: "
        f"**{report.n_genuinely_alive}** ({report.frac_genuinely_alive:.1%})\n"
        f"- of the functional links, {report.frac_alive_via_redirect:.0%} "
        "redirect before answering 200\n"
        f"- first post-marking archived copy erroneous for "
        f"{report.n_first_post_marking_erroneous}/"
        f"{report.n_with_post_marking_copy} links "
        f"({report.frac_first_post_marking_erroneous:.0%}) — IABot's "
        "single-GET check rarely mislabels"
    )


def _section4(report) -> str:
    return (
        "## §4 — what archived copies exist?\n\n"
        f"- links with initial-200 copies before marking: "
        f"**{report.n_pre_marking_200}** ({report.frac_pre_marking_200:.1%}) "
        "— hidden from IABot by availability-lookup timeouts\n"
        f"- of the remaining {report.n_rest}: "
        f"**{report.n_rest_with_pre_3xx}** had 3xx copies, of which "
        f"**{report.n_valid_redirect_copy}** validate as non-erroneous "
        f"({report.frac_patchable_via_redirect:.1%} of the sample is "
        "patchable via archived redirections)"
    )


def _section5(report) -> str:
    temporal = report.temporal
    spatial = report.spatial
    gaps = temporal.gaps_days
    gap_plot = ascii_cdf_plot(
        {"gap": ecdf([max(g, 0.5) for g in gaps])},
        f"Figure 5: posting-to-first-capture gap in days (n={len(gaps)})",
        "days",
        log_x=True,
    )
    coverage_plot = ascii_cdf_plot(
        {
            "directory": ecdf([max(c, 0.5) for c in spatial.directory_counts]),
            "hostname": ecdf([max(c, 0.5) for c in spatial.hostname_counts]),
        },
        f"Figure 6: archived neighbors (n={len(spatial.records)})",
        "neighbors with 200 copies",
        log_x=True,
    )
    return (
        "## §5 — why no successful archived copies?\n\n"
        f"- archived / never archived split: {report.n_rest_with_any_copy} / "
        f"{report.n_never_archived}\n"
        f"- links archived before they were posted: "
        f"{len(temporal.with_pre_posting_copy)}\n"
        f"- same-day first captures: {len(temporal.same_day)}, of which "
        f"{len(temporal.same_day_erroneous)} erroneous first-up (typos)\n"
        f"- coverage gaps among never-archived links: "
        f"{len(spatial.directory_gaps)} directory-level, "
        f"{len(spatial.hostname_gaps)} hostname-level\n"
        f"- typos found by unique edit-distance-1 archived siblings: "
        f"{len(report.typos)}\n\n"
        + _code(gap_plot)
        + "\n\n"
        + _code(coverage_plot)
    )


def _comparison_section(report) -> str:
    table = ComparisonTable(title="")
    for headline in HEADLINES:
        if headline.report_label is not None:
            table.add(
                headline.report_label,
                headline.paper,
                headline.measure(report),
            )
    return "## Paper vs measured\n\n" + _code(table.render())
