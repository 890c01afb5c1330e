"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main
from repro.reporting.headlines import HEADLINE_TITLE, HEADLINES

WORLD = ["--links", "400", "--seed", "6"]


def run(argv, capsys) -> tuple[int, str]:
    """Exit code and stdout of one CLI invocation."""
    code = main(argv)
    return code, capsys.readouterr().out


def headline_block(out: str) -> str:
    """The headline table as printed: title, header, rule, one row each."""
    lines = out.splitlines()
    start = lines.index(HEADLINE_TITLE)
    return "\n".join(lines[start:start + 3 + len(HEADLINES)])


class TestCli:
    def test_study(self, capsys):
        assert main(["study", "--links", "400", "--seed", "6"]) == 0
        out = capsys.readouterr().out
        for figure in (
            "Figure 3(a)", "Figure 3(b)", "Figure 3(c)", "Figure 4",
            "Figure 5", "Figure 6", HEADLINE_TITLE,
        ):
            assert figure in out, figure
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

    def test_calibrate_grades_the_table_study_prints(self, capsys):
        code, out = run(["calibrate", *WORLD], capsys)
        table = headline_block(out)
        rows = table.splitlines()[3:]
        assert [row.split("  ")[0] for row in rows] == [
            headline.name for headline in HEADLINES
        ]
        assert all(row.endswith((" ok", " OFF")) for row in rows)
        all_within_band = not any(row.endswith(" OFF") for row in rows)
        assert code == (0 if all_within_band else 1)
        _, study = run(["study", *WORLD], capsys)
        assert headline_block(study) == table

    def test_live_chaos_rebalance(self, capsys):
        code, out = run(
            [
                "live", *WORLD, "--generations", "3", "--requests", "300",
                "--chaos", "--rebalance",
            ],
            capsys,
        )
        assert code == 0
        chaos = next(line for line in out.splitlines()
                     if line.startswith("chaos: "))
        assert int(chaos.split("; ")[1].split()[0]) > 0, chaos
        assert "replica fault events" in chaos
        assert "  reconfig rebalance at " in out
        assert "% of the " in out and "-byte snapshot" in out

    def test_live_rebalance_requires_chaos(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["live", *WORLD, "--rebalance"])
        assert exit_info.value.code == 2
        assert "--rebalance requires --chaos" in capsys.readouterr().err

    def test_serve_prints_per_replica_lines(self, capsys):
        code, out = run(
            ["serve", *WORLD, "--requests", "300", "--shards", "2",
             "--replicas", "2"],
            capsys,
        )
        assert code == 0
        replica_lines = [
            line for line in out.splitlines()
            if line.endswith(" lookups") and " ok, " in line
        ]
        assert len(replica_lines) == 4

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
