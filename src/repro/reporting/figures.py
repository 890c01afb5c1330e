"""Text renderings of the paper's figures.

Benchmarks print these so a terminal diff against the paper's plots is
possible: CDFs as fixed-width curves over (optionally log-scaled) x
axes, and Figure 4's grouped bars as labelled horizontal bars.
"""

from __future__ import annotations

from .cdf import Ecdf

_BAR = "#"


def render_cdf(
    series: dict[str, Ecdf],
    title: str,
    x_label: str,
    log_x: bool = False,
    points: int = 12,
) -> str:
    """Tabular CDF rendering: one column of F(x) per series.

    ``points`` x positions are chosen across the pooled value range
    (geometrically when ``log_x``, matching the paper's log axes).
    """
    pooled: list[float] = []
    for curve in series.values():
        pooled.extend(curve.values)
    if not pooled:
        return f"{title}\n  (no data)"
    lo, hi = min(pooled), max(pooled)
    xs = _axis_points(lo, hi, points, log_x)
    names = list(series)
    header = f"{x_label:>14s} " + " ".join(f"{name:>16s}" for name in names)
    lines = [title, header]
    for x in xs:
        cells = " ".join(f"{series[name].at(x):16.3f}" for name in names)
        lines.append(f"{_fmt_x(x):>14s} {cells}")
    return "\n".join(lines)


def render_bar_chart(
    counts: dict[str, int], title: str, width: int = 50
) -> str:
    """Horizontal bars, Figure-4 style."""
    if not counts:
        return f"{title}\n  (no data)"
    peak = max(counts.values()) or 1
    label_width = max(len(label) for label in counts)
    lines = [title]
    for label, value in counts.items():
        bar = _BAR * max(int(round(width * value / peak)), 1 if value else 0)
        lines.append(f"  {label:<{label_width}s} {value:>7d} {bar}")
    return "\n".join(lines)


def _axis_points(lo: float, hi: float, points: int, log_x: bool) -> list[float]:
    if points < 2 or hi <= lo:
        return [lo, hi] if hi > lo else [lo]
    if log_x:
        floor = max(lo, 1e-9)
        if hi <= floor:
            return [floor]
        ratio = (hi / floor) ** (1.0 / (points - 1))
        return [floor * ratio**i for i in range(points)]
    step = (hi - lo) / (points - 1)
    return [lo + step * i for i in range(points)]


def _fmt_x(x: float) -> str:
    if x >= 100 or x == int(x):
        return f"{x:,.0f}"
    return f"{x:.2f}"
