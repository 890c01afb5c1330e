"""Compare two sets of benchmark runs, one row per (workload, metric).

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py A.json B.json

``A.json`` and ``B.json`` are ``run.py --out`` files from alternating
paired runs: run A and B in turn, with the same ``--seed`` for each
pair and the first side alternating, at least ten pairs. The i-th
run of a workload in A is paired with the i-th in B.

For every end-to-end metric in ``BENCHMARK.json`` it prints each
side's median and quartiles over runs, the change of B against A, and
the share of pairs B wins (ties count for neither side). Verdicts:

- ``unresolved`` — either side's spread (q3 − q1, over its median)
  exceeds the metric's bound, and B neither beats nor loses to A in
  every run;
- ``regression`` — B's median is worse than A's by more than the bound;
- ``gain`` — B wins at least nine tenths of the pairs and the medians
  differ by more than A's own quartile distance;
- ``within bound`` — otherwise.

Exits non-zero when any row is a regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from digest import quartiles

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _runs(path: str) -> dict[str, list[dict]]:
    """Untraced, correct runs grouped by workload, in file order."""
    grouped: dict[str, list[dict]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["trace"] or not run["correct"]:
            continue
        grouped.setdefault(run["workload"], []).append(run)
    return grouped


def verdict(a: list[float], b: list[float], bound: float, lower_is_better: bool) -> dict:
    """Apply the paired-run rule to one metric's per-run values."""
    sign = 1.0 if lower_is_better else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    worse_by = sign * (b_med - a_med) / a_med
    spread = max((a_q3 - a_q1) / a_med, (b_q3 - b_q1) / b_med)
    if spread > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            call = "gain"
        elif all(sign * (y - x) > 0 for x in a for y in b):
            call = "regression"
        else:
            call = "unresolved"
    elif worse_by > bound:
        call = "regression"
    elif wins >= 0.9 * len(pairs) and abs(b_med - a_med) > a_q3 - a_q1:
        call = "gain"
    else:
        call = "within bound"
    return {
        "a": (a_med, a_q1, a_q3),
        "b": (b_med, b_q1, b_q3),
        "worse_by": worse_by,
        "spread": spread,
        "wins": wins,
        "pairs": len(pairs),
        "verdict": call,
    }


def _fmt(stats: tuple[float, float, float]) -> str:
    median, q1, q3 = stats
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    side_a, side_b = _runs(argv[0]), _runs(argv[1])
    header = (
        f"{'workload':<12} {'metric':<12} {'A median [q1, q3]':<30} "
        f"{'B median [q1, q3]':<30} {'worse by':>9} {'B wins':>7} "
        f"{'bound':>6}  verdict"
    )
    print(header)
    regressions = 0
    for workload in sorted(set(side_a) & set(side_b)):
        runs_a, runs_b = side_a[workload], side_b[workload]
        n = min(len(runs_a), len(runs_b))
        seeds_differ = any(
            x["seed"] != y["seed"] for x, y in zip(runs_a[:n], runs_b[:n])
        )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["median"] for run in runs_a[:n]]
            b = [run["metrics"][name]["median"] for run in runs_b[:n]]
            row = verdict(a, b, metric["bound"], metric["better"] == "lower")
            regressions += row["verdict"] == "regression"
            print(
                f"{workload:<12} {name:<12} {_fmt(row['a']):<30} "
                f"{_fmt(row['b']):<30} {row['worse_by']:>+8.1%} "
                f"{row['wins']:>3}/{row['pairs']:<3} {metric['bound']:>6.0%}  "
                f"{row['verdict']}"
                + ("  (pairs ran different seeds)" if seeds_differ else "")
            )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
