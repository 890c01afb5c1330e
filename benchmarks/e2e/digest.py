"""The benchmark's one environment/digest helper.

Every time the benchmark reports comes from :func:`timed`, in
reference seconds (see below). Every number goes through
:func:`summarize` (per-round values plus min, q1, median, q3), and
every digest it writes carries :func:`environment` (Python version,
analysis backend, CPU count, git commit, seed), so two digests can be
compared knowing what ran where.

**Reference seconds.** On a shared machine the speed of the CPU the
benchmark gets drifts: runs a few minutes apart differed by up to 40%
on the 2-vCPU VM the bounds were set on, whole runs at a time, and a
vCPU switched between two speeds about 1.8x apart every few seconds.
:func:`probe_s` times a fixed pure-Python workload, which the program
under test cannot change. :func:`timed` times it just before and just
after each measured call, and scales the call's wall time by
``REFERENCE_PROBE_S`` over their mean, raised to ``PROBE_EXPONENT``.
The result is the wall time the call would have taken on a machine
where the probe takes ``REFERENCE_PROBE_S``. The raw wall time is kept
beside it.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

#: The checkout the benchmark runs in (``benchmarks/e2e/`` is two down).
ROOT = Path(__file__).resolve().parents[2]

#: :func:`probe_s` on the reference machine when nothing else runs: a
#: 2-vCPU Xeon VM, CPython 3.11.7.
REFERENCE_PROBE_S = 0.016

#: How the program's time follows the probe's when the machine slows.
#: The probe is pure interpreter dispatch and slows more than the
#: program does: on the reference VM, round times went as the probe's
#: time to the power 0.6-0.8, depending on the workload. Scaling by the
#: full ratio overcorrected. On a contended machine a ten-seed set then
#: read up to 6% fast, and the spread between its seeds was up to four
#: times that with this exponent.
PROBE_EXPONENT = 0.8


def probe_s() -> float:
    """Seconds a fixed pure-Python workload takes right now.

    Dict, string and integer work, like the program's own; about 16 ms
    on the reference machine.
    """
    start = time.perf_counter()
    counts: dict[str, int] = {}
    total = 0
    for i in range(60_000):
        key = f"k{i % 997}"
        counts[key] = counts.get(key, 0) + i
        total += len(key) * (i & 7)
    sorted(counts.values())
    return time.perf_counter() - start


def timed(fn, *args):
    """Call ``fn(*args)``; return ``(result, wall_s, reference_s)``."""
    before = probe_s()
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    after = probe_s()
    speed = REFERENCE_PROBE_S * 2 / (before + after)
    return result, wall, wall * speed ** PROBE_EXPONENT


def sha256(data: str | bytes) -> str:
    """Hex sha256 of text (UTF-8) or bytes."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values: list[float]) -> dict:
    """Per-round values with their count, min, q1, median and q3."""
    q1, median, q3 = quartiles(values)
    return {
        "n": len(values),
        "min": min(values),
        "q1": q1,
        "median": median,
        "q3": q3,
        "values": list(values),
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    """Where and with what a run happened."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "analysis_backend": importlib.import_module("repro.numerics").BACKEND,
        "cpu_count": os.cpu_count(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def append_run(path: Path, run: dict) -> None:
    """Append one run record to a ``{"runs": [...]}`` digest file."""
    payload = {"runs": []}
    if path.exists():
        payload = json.loads(path.read_text())
    payload["runs"].append(run)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
