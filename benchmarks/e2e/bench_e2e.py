"""Smoke test for the end-to-end benchmark at toy scale (``--smoke``).

Runs every workload twice with one seed and once with another, and
checks that every metric ``BENCHMARK.json`` names is printed with its
unit, that the same seed reproduces every output digest, and that a
different seed changes them. A traced run must print every per-layer
metric.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(tmp_path: Path, label: str, *args: str) -> tuple[dict, dict]:
    """One ``run.py --smoke`` invocation: its JSON line and digests."""
    out = tmp_path / f"{label}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    runs = json.loads(out.read_text())["runs"]
    return result, {run["workload"]: run["digests"] for run in runs}


def test_smoke_prints_every_metric_and_digests_follow_the_seed(tmp_path):
    first, digests = _run(tmp_path, "a", "--seed", "11")
    _, again = _run(tmp_path, "b", "--seed", "11")
    _, other = _run(tmp_path, "c", "--seed", "12")

    assert first["correct"] and first["failed"] == 0
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"]:
            printed = first["metrics"][f"{workload['name']}/{metric['name']}"]
            assert printed["unit"] == metric["unit"]
            assert printed["value"] > 0

    assert set(digests) == {w["name"] for w in SPEC["workloads"]}
    assert digests == again
    for workload, digest in digests.items():
        assert digest != other[workload], workload


def test_traced_smoke_prints_every_per_layer_metric(tmp_path):
    result, _ = _run(
        tmp_path, "traced", "--workload", "serve_swaps", "--trace", "1",
        "--trace-dir", str(tmp_path),
    )
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    trace = json.loads((tmp_path / "trace_serve_swaps.json").read_text())
    assert trace["round_layers"]["service.loop"]["calls"] >= 1
    assert trace["setup_layers"]["live.build"]["calls"] >= 1
