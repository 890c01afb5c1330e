"""Plain-text table rendering for benchmark output."""

from __future__ import annotations


def render_table(
    headers: list[str],
    rows: list[list[object]],
    title: str = "",
) -> str:
    """A fixed-width text table.

    Numeric cells are right-aligned and floats are shown with one
    decimal; everything else is left-aligned.
    """
    rendered = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    numeric = [
        all(_is_numberish(row[i]) for row in rows) if rows else False
        for i in range(len(headers))
    ]

    def fmt(cells: list[str], pads: list[bool]) -> str:
        """Join one row's cells with per-column alignment."""
        parts = []
        for cell, width, right in zip(cells, widths, pads):
            parts.append(cell.rjust(width) if right else cell.ljust(width))
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(headers, [False] * len(headers)))
    lines.append(fmt(["-" * w for w in widths], [False] * len(headers)))
    for row in rendered:
        lines.append(fmt(row, numeric))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def _is_numberish(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)
