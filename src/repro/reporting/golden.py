"""The golden end-to-end report: one pinned world, one pinned render.

``tests/test_golden_report.py`` re-renders the study of a small pinned
world on every run and compares it byte-for-byte against the committed
snapshot at :data:`GOLDEN_RELPATH`. Any change that moves a measured
number, reorders a section, or reformats a figure shows up as a diff of
the golden file — intentional changes regenerate it with::

    REPRO_UPDATE_GOLDENS=1 pytest tests/test_golden_report.py

The pinned world is deliberately small (the same shape the exec tests
use) so the snapshot test stays in tier-1.
"""

from __future__ import annotations

from pathlib import Path

from ..analysis.study import Study
from ..dataset.worldgen import WorldConfig, generate_world
from .report import render_markdown_report

#: The world the golden snapshot studies. Changing any field here is a
#: measurement change and requires regenerating the snapshot.
GOLDEN_CONFIG = WorldConfig(n_links=260, target_sample=200, seed=7)

#: Snapshot location, relative to the repository root.
GOLDEN_RELPATH = "tests/golden/study_report_tiny.md"

#: Title baked into the snapshot (part of the byte-exact contract).
GOLDEN_TITLE = "Study report — golden tiny world (n_links=260, seed=7)"


def render_golden_report() -> str:
    """Generate the pinned world, run the study, render the Markdown.

    Pure function of :data:`GOLDEN_CONFIG`: two calls — or two
    machines — produce byte-identical text, which is what makes the
    snapshot comparison meaningful.
    """
    world = generate_world(GOLDEN_CONFIG)
    report = Study.from_world(world).run()
    return render_markdown_report(report, title=GOLDEN_TITLE)


def golden_path(root: str | Path) -> Path:
    """Absolute snapshot path under a repository root."""
    return Path(root) / GOLDEN_RELPATH


def update_golden(root: str | Path) -> Path:
    """Regenerate the snapshot under ``root``; returns its path."""
    path = golden_path(root)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_golden_report(), encoding="utf-8")
    return path
