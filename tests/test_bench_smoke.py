"""Benchmark smoke test: every bench_*.py runs end-to-end at toy scale.

The benchmarks only run in the tier-3 CI job (and by hand before a
release), so a refactor can silently break one — a renamed fixture, a
stale import, a digest key nobody updates — and stay broken for weeks.
This test closes that gap cheaply: one subprocess pytest run over
``benchmarks/`` with the world shrunk to a few hundred links, the
service sweeps cut to a few thousand requests, and the JSON digests
redirected to a tmp dir (``REPRO_BENCH_OUT``) so a toy-scale run can
never clobber the committed full-scale ``BENCH_*.json`` files that
EXPERIMENTS.md quotes.

Numbers are not checked here — toy-scale figures mean nothing. What
is checked: every benchmark collects, runs, and passes its own
internal assertions, and every digest writer produces parseable JSON
with its load-bearing keys.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Scale-down knobs: a few hundred links exercises every code path
#: the benches have in well under a minute of study time. (Paper-
#: figure assertions gate themselves on the `paper_scale` fixture, so
#: a world this small still runs every benchmark to completion.)
TOY_ENV = {
    "REPRO_BENCH_LINKS": "800",
    "REPRO_BENCH_SAMPLE": "800",
    "REPRO_BENCH_SERVICE_REQUESTS": "2000",
    "REPRO_BENCH_CLUSTER_REQUESTS": "3000",
    "REPRO_BENCH_LIVE_LINKS": "400",
    "REPRO_BENCH_LIVE_SAMPLE": "150",
    "REPRO_BENCH_LIVE_REQUESTS": "1000",
    "REPRO_NO_COV": "1",
}

#: Digest name -> keys the writer must produce (EXPERIMENTS.md and the
#: README quote these; a silent rename breaks the docs pipeline).
DIGESTS = {
    "BENCH_analysis.json": ("blocks", "headline_blocks"),
    "BENCH_obs.json": ("overhead_frac", "spans", "service"),
    "BENCH_service.json": ("single_node", "cluster"),
    "BENCH_live.json": ("delta_rebuild", "swap"),
    "BENCH_reconfig.json": ("delta_wire", "swap_discipline", "rebalance"),
}


@pytest.mark.slow
def test_every_benchmark_runs_at_toy_scale(tmp_path):
    env = dict(os.environ)
    env.update(TOY_ENV)
    env["REPRO_BENCH_OUT"] = str(tmp_path)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            str(REPO_ROOT / "benchmarks"),
            "-o",
            "addopts=",  # drop the marker filter and -q from pyproject
            "-q",
            "-p",
            "no:cacheprovider",
            # No ``-x``: one failing benchmark must not hide the rest.
            "--benchmark-disable",
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=1800,
    )
    assert proc.returncode == 0, (
        f"toy-scale benchmark run failed:\n"
        f"--- stdout (tail) ---\n{proc.stdout[-4000:]}\n"
        f"--- stderr (tail) ---\n{proc.stderr[-4000:]}"
    )

    for name, keys in DIGESTS.items():
        path = tmp_path / name
        assert path.exists(), f"{name} was not written (stdout: see above)"
        payload = json.loads(path.read_text())
        for key in keys:
            assert key in payload, f"{name} lost its {key!r} key"

    # The committed full-scale digests were not touched.
    cluster = json.loads((tmp_path / "BENCH_service.json").read_text())
    assert cluster["cluster"]["n_requests_per_run"] == 3000

    # The live pipeline delta-built and swapped at toy scale.
    live = json.loads((tmp_path / "BENCH_live.json").read_text())
    assert live["swap"]["n_requests"] == 1000
    assert live["delta_rebuild"]["batches"]
    for digest in live["delta_rebuild"]["batches"]:
        assert digest["dirty"] >= digest["events"]

    # Deltas beat snapshots at every event-batch size, even toy scale.
    reconfig = json.loads((tmp_path / "BENCH_reconfig.json").read_text())
    assert reconfig["delta_wire"]["batches"]
    for digest in reconfig["delta_wire"]["batches"]:
        assert digest["delta_bytes"] < digest["snapshot_bytes"]
    assert reconfig["swap_discipline"]["rolling"]["drained_batches"] > 0

    # The service-tier obs arm ran at toy scale and recorded its keys.
    obs = json.loads((tmp_path / "BENCH_obs.json").read_text())
    assert obs["service"]["requests"] == 2000
    for key in ("off_seconds", "on_seconds", "overhead_frac", "spans"):
        assert key in obs["service"], f"service arm lost its {key!r} key"
