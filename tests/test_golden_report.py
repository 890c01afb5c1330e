"""Golden snapshot test for the end-to-end Markdown report.

Re-renders the study of the pinned golden world and compares it
byte-for-byte against the committed snapshot. This is the broadest
regression net in the suite: any change to world generation, sampling,
the analysis pipeline, ECDF/plot rendering, or the report template
shows up here as a diff. Intentional changes regenerate the snapshot::

    REPRO_UPDATE_GOLDENS=1 pytest tests/test_golden_report.py
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.reporting.golden import (
    GOLDEN_RELPATH,
    GOLDEN_TITLE,
    golden_path,
    render_golden_report,
    update_golden,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

REGENERATE = "REPRO_UPDATE_GOLDENS=1 pytest tests/test_golden_report.py"


@pytest.fixture(scope="module")
def rendered() -> str:
    """One render of the golden study, shared by every check."""
    return render_golden_report()


class TestGoldenSnapshot:
    def test_matches_committed_snapshot_byte_for_byte(
        self, rendered, update_goldens
    ):
        if update_goldens:
            update_golden(REPO_ROOT)
        path = golden_path(REPO_ROOT)
        assert path.exists(), (
            f"golden snapshot missing at {GOLDEN_RELPATH}; generate it "
            f"with: {REGENERATE}"
        )
        committed = path.read_text(encoding="utf-8")
        assert rendered == committed, (
            "study report drifted from the golden snapshot — if the "
            f"change is intentional, regenerate with: {REGENERATE}"
        )

    def test_render_is_deterministic(self, rendered):
        assert render_golden_report() == rendered

    def test_report_shape(self, rendered):
        assert rendered.startswith(f"# {GOLDEN_TITLE}\n")
        assert rendered.endswith("\n")
        for heading in (
            "## Dataset",
            "## Figure 3 — dataset characterisation",
            "## Figure 4 — live-web status today",
            "## §3 — are permanently dead links indeed dead?",
            "## §4 — what archived copies exist?",
            "## §5 — why no successful archived copies?",
            "## Paper vs measured",
        ):
            assert heading in rendered, heading

    def test_update_golden_round_trips(self, rendered, tmp_path):
        written = update_golden(tmp_path)
        assert written == tmp_path / GOLDEN_RELPATH
        assert written.read_text(encoding="utf-8") == rendered
