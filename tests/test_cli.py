"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_study(self, capsys):
        assert main(["study", "--links", "400", "--seed", "6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "permanently dead links studied" in out

    def test_study_markdown(self, tmp_path, capsys):
        path = str(tmp_path / "report.md")
        assert main(
            ["study", "--links", "400", "--seed", "6", "--markdown", path]
        ) == 0
        with open(path, encoding="utf-8") as handle:
            document = handle.read()
        assert document.startswith("# Study report")
        assert "## Paper vs measured" in document

    def test_medic(self, capsys):
        assert main(["medic", "--links", "400", "--seed", "6"]) == 0
        out = capsys.readouterr().out
        assert "patched" in out and "category" in out

    def test_live(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "live.json")
        assert main(
            [
                "live", "--links", "400", "--seed", "6",
                "--generations", "3", "--requests", "300", "--json", path,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "gen 3" in out
        assert "zero-downtime swaps: 2" in out
        assert "freshness SLO" in out
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert len(payload["generations"]) == 3
        assert payload["generations"][0]["dirty"] > payload[
            "generations"
        ][1]["dirty"]
        assert len(payload["served_by_generation"]) == 3

    def test_serve_default_topology_applies_crash_plan(self, tmp_path, capsys):
        import json

        path = str(tmp_path / "serve.json")
        assert main(
            [
                "serve", "--links", "400", "--seed", "6", "--requests", "300",
                "--crash-rate", "1.0", "--json", path,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "1 shards x 1 replicas" in out
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert payload["fault_events"] > 0

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
