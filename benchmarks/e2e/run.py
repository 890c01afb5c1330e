"""End-to-end benchmark: cold pipeline, study, hot serve, swapping serve.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace 0|1] [--trace-dir DIR]
                                  [--smoke] [--out FILE]

With no ``--workload`` every workload runs, each in its own process.
For each workload the benchmark sets up its inputs several times
(reporting the median as ``setup_s``), runs warm-up rounds, then
measures rounds for ``--seconds`` and reports medians. Every round's
outputs are digested and checked against the other rounds and, for
seeds recorded there, against ``expected.json``. The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` splits the
budget between untraced and traced rounds and reports the per-layer
metrics instead (see ``layers.py``), writing the full aggregates to
``DIR/trace_<workload>.json``. ``--out FILE`` appends the run record
(environment, per-round values, digests) to a ``{"runs": [...]}`` file
that ``compare.py`` reads. The exit status is non-zero when any output
is wrong.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
sys.path.insert(0, str(SRC))

from digest import append_run, environment, summarize, timed  # noqa: E402
from layers import LAYERS, STAGES, LayerTracer  # noqa: E402

WORKLOAD_NAMES = ("pipeline", "study", "serve_hot", "serve_swaps")
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 11
DEFAULT_SECONDS = 10

#: End-to-end metrics (name -> unit); ``BENCHMARK.json`` lists the same.
END_TO_END = {"setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}

#: Layers attributed over set-up rather than rounds: live generations
#: are built while ``serve_swaps`` sets up its swap schedule.
SETUP_LAYERS = ("live.build", "live.publish", "live.build_delta")

#: Per-layer metrics read from the program's public results, with units.
COUNTERS = {
    "archive.capture.stored_frac": "ratio",
    "textsim.sketch.hit_frac": "ratio",
    "exec.shard_wall_max_s": "s",
    "exec.shards": "count",
    "analysis.phase.probe_census_s": "s",
    "analysis.phase.soft404_s": "s",
    "analysis.phase.temporal_s": "s",
    "analysis.phase.spatial_s": "s",
    "analysis.phase.typos_s": "s",
    "backends.fetch.hit_frac": "ratio",
    "backends.cdx.hit_frac": "ratio",
    "service.cache.hit_frac": "ratio",
    "service.index.lookups": "count",
    "service.batch.coalesced": "count",
    "service.reconfig.events": "count",
    "live.dirty_records": "count",
    "live.generation_s": "s",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in a stable order."""
    units: dict[str, str] = {}
    for name in STAGES:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.busy_s"] = "s"
    for name in (*LAYERS, "net.fetch_robots"):
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.busy_s"] = "s"
    units.update(COUNTERS)
    units["other.self_s"] = "s"
    units["trace_overhead_frac"] = "ratio"
    return units


# -- the fresh-interpreter child -------------------------------------------------


def child_main(args) -> int:
    """A fresh interpreter: import the program, then (``pipeline``)
    run the cold pipeline over one world."""
    import workloads

    if args.child == "import":
        return 0
    tracer = LayerTracer() if args.traced else None
    if tracer is not None:
        tracer.install()
    raw, wall, reference = timed(
        workloads.pipeline_run,
        args.world_seed, args.links, args.requests, tracer,
    )
    if tracer is not None:
        tracer.uninstall()
    out = workloads.pipeline_outputs(*raw)
    out.update(wall_s=wall, reference_s=reference)
    if tracer is not None:
        out["trace"] = tracer.export()
    print(json.dumps(out))
    return 0


# -- one workload ------------------------------------------------------------------


def _expected(scale: str, seed: int, workload: str) -> dict:
    if not EXPECTED.exists():
        return {}
    table = json.loads(EXPECTED.read_text())
    return table.get(scale, {}).get(str(seed), {}).get(workload, {})


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "pipeline" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Runner:
    """Set up, round, check and summarize one workload."""

    def __init__(self, args) -> None:
        import workloads

        self.args = args
        self.scale = workloads.SMOKE if args.smoke else workloads.FULL
        self.workload = workloads.WORKLOADS[args.workload](args.seed, self.scale)
        self.expected = (
            {} if args.write_expected
            else _expected(self.scale.name, args.seed, args.workload)
        )
        self.observed: dict[str, dict] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.outputs = []
        #: Per-generation build seconds over every ``serve_swaps`` set-up.
        self.generation_s: list[float] = []
        self.dirty_records: list[int] = []

    def check(self, key: str, digest) -> bool:
        """Digests must repeat and match ``expected.json`` if present."""
        if digest is None:
            return True
        first = self.observed.setdefault(key, digest)
        if digest != first:
            self.problems.append(f"{key}: digest differs between runs")
            return False
        if key in self.expected and digest != self.expected[key]:
            self.problems.append(f"{key}: digest differs from expected.json")
            return False
        return True

    def setups(self, count: int, tracer) -> tuple[object, list, list]:
        """Set up ``count`` times; the last inputs, and each set-up's
        wall and reference seconds."""
        state, walls, seconds = None, [], []
        for _ in range(count):
            state = None  # free the previous inputs first
            with tracer.installed() if tracer else nullcontext():
                state, wall, reference = timed(self.workload.setup)
            walls.append(wall)
            seconds.append(reference)
            self.check("setup", self.workload.setup_digest(state))
            self.generation_s.extend(getattr(state, "generation_s", ()))
            self.dirty_records.extend(getattr(state, "dirty_records", ()))
        return state, walls, seconds

    def one_round(self, state, tracer):
        """Time one round; ``((wall, reference seconds), output)`` or
        ``None`` when it failed."""
        self.attempted += 1
        gc.collect()  # start every round from a collected heap
        try:
            raw, wall, reference = timed(self.workload.round, state, tracer)
            out = self.workload.inspect(state, raw)
        except Exception:  # a failed round is counted, reported, skipped
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=4))
            return None
        if not self.check(out.key, out.digest):
            self.failed += 1
            return None
        self.outputs.append(out)
        return out.seconds or (wall, reference), out

    def rounds(self, state, seconds: float, tracer) -> tuple[list, list]:
        """Rounds for ``seconds`` (at least ``min_rounds``): their
        ``(wall, reference seconds)`` pairs and outputs."""
        times, outs = [], []
        begin = time.perf_counter()
        while (
            len(times) < self.workload.min_rounds
            or time.perf_counter() - begin < seconds
        ):
            if self.failed > 3:
                break
            done = self.one_round(state, tracer)
            if done is not None:
                times.append(done[0])
                outs.append(done[1])
        return times, outs

    def run(self) -> dict:
        args, scale = self.args, self.scale
        seconds = 0.0 if args.smoke else float(args.seconds)
        setup_tracer = LayerTracer() if args.trace else None
        state, setup_walls, setup_seconds = self.setups(
            1 if args.trace else scale.setups, setup_tracer
        )
        for _ in range(self.workload.warmups):
            self.one_round(state, None)
        budget = seconds / 2 if args.trace else seconds
        times, outs = self.rounds(state, budget, None)
        walls = [wall for wall, _ in times]
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "scale": scale.name,
            "seconds": seconds,
            "trace": int(args.trace),
            "work_unit": self.workload.work_unit,
            "wall_s": summarize(walls) if walls else None,
            "setup_wall_s": summarize(setup_walls),
        }
        if args.trace:
            tracer = LayerTracer()
            with tracer.installed():
                traced_times, traced_outs = self.rounds(state, budget, tracer)
            record["per_layer"] = self.per_layer(
                times, traced_times, traced_outs, tracer, setup_tracer
            )
        verify = getattr(self.workload, "verify", None)
        if verify is not None and self.outputs:
            self.problems.extend(verify(state, self.outputs))
        if not times:
            self.problems.append("no round completed")
        metrics = {}
        if times:
            metrics = {
                "setup_s": summarize(setup_seconds),
                "work_per_s": summarize([
                    out.work / reference
                    for (_, reference), out in zip(times, outs)
                ]),
                "peak_rss_mb": summarize([_peak_rss_mb(args.workload)]),
            }
        record.update(
            environment=environment(args.seed),
            correct=not self.problems and self.failed == 0,
            attempted=self.attempted,
            failed=self.failed,
            problems=self.problems,
            metrics=metrics,
            digests=self.observed,
            failed_frac=self.failed / max(self.attempted, 1),
            generation_s=(
                summarize(self.generation_s) if self.generation_s else None
            ),
        )
        return record

    def per_layer(self, times, traced_times, outs, tracer, setup_tracer) -> dict:
        """Per-round means over traced rounds (set-up means for
        :data:`SETUP_LAYERS`), plus tracing overhead."""
        for out in outs:
            for trace in out.traces:
                tracer.merge(trace)
        traced_walls = [wall for wall, _ in traced_times]
        n = max(len(traced_walls), 1)
        totals = tracer.totals()
        setup_totals = setup_tracer.totals()
        values: dict[str, float] = {}
        for name in STAGES:
            entry = totals.get(name, {})
            values[f"{name}.self_s"] = entry.get("self_s", 0.0) / n
            values[f"{name}.busy_s"] = entry.get("busy_s", 0.0) / n
        for name in (*LAYERS, "net.fetch_robots"):
            source, count = (setup_totals, 1) if name in SETUP_LAYERS else (totals, n)
            entry = source.get(name, {})
            for field in ("calls", "self_s", "busy_s"):
                values[f"{name}.{field}"] = entry.get(field, 0) / count
        for name in COUNTERS:
            present = [out.counters[name] for out in outs if name in out.counters]
            values[name] = statistics.fmean(present) if present else 0.0
        sketch_calls = totals.get("textsim.sketch", {}).get("calls", 0)
        if sketch_calls:
            misses = tracer.counters.get("textsim.sketch.misses", 0)
            values["textsim.sketch.hit_frac"] = 1.0 - misses / sketch_calls
        if self.generation_s:
            values["live.generation_s"] = statistics.median(self.generation_s)
            values["live.dirty_records"] = statistics.fmean(self.dirty_records)
        attributed = sum(entry["self_s"] for entry in totals.values()) / n
        traced_mean = statistics.fmean(traced_walls) if traced_walls else 0.0
        values["other.self_s"] = traced_mean - attributed
        # In reference seconds, so that drift between the untraced and
        # the traced half of the run does not count as tracing cost.
        values["trace_overhead_frac"] = (
            statistics.median(r for _, r in traced_times)
            / statistics.median(r for _, r in times) - 1.0
            if traced_times and times else 0.0
        )
        self._write_trace(
            tracer, setup_tracer, traced_walls,
            [wall for wall, _ in times], values,
        )
        return values

    def _write_trace(self, tracer, setup_tracer, traced_walls, walls, values) -> None:
        def layers(source: LayerTracer) -> dict:
            out: dict[str, dict] = {}
            for (name, parent), (calls, busy, own) in sorted(source.aggregates.items()):
                entry = out.setdefault(name, {"parents": {}})
                entry["parents"][parent or "(round)"] = {
                    "calls": calls, "busy_s": busy, "self_s": own,
                }
            for name, total in source.totals().items():
                out[name].update(total)
            return out

        directory = Path(self.args.trace_dir)
        directory.mkdir(parents=True, exist_ok=True)
        payload = {
            "workload": self.args.workload,
            "environment": environment(self.args.seed),
            "traced_rounds": len(traced_walls),
            "traced_wall_s": summarize(traced_walls) if traced_walls else None,
            "untraced_wall_s": summarize(walls) if walls else None,
            "per_layer": values,
            "round_layers": layers(tracer),
            "setup_layers": layers(setup_tracer),
            "counters": tracer.counters,
        }
        path = directory / f"trace_{self.args.workload}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


# -- reporting ---------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _print_stats(name: str, stats: dict | None, unit: str) -> None:
    if stats is not None:
        print(
            f"  {name:<14} {_fmt(stats['median'])} {unit}  "
            f"(q1 {_fmt(stats['q1'])}, q3 {_fmt(stats['q3'])}, n {stats['n']})"
        )


def print_human(record: dict) -> None:
    name = record["workload"]
    wall = record["wall_s"]
    rounds = wall["n"] if wall else 0
    print(
        f"== {name} (seed {record['seed']}, {record['scale']} scale, "
        f"{record['setup_wall_s']['n']} set-ups, {rounds} rounds; "
        f"work = {record['work_unit']}) =="
    )
    if record["trace"]:
        for metric, value in record.get("per_layer", {}).items():
            if value:
                unit = per_layer_units()[metric]
                print(f"  {metric:<40} {_fmt(value)} {unit}")
    else:
        for metric, unit in END_TO_END.items():
            _print_stats(metric, record["metrics"].get(metric), unit)
        if record["work_unit"] == "requests":
            # Serving work is counted in requests: the simulator's throughput.
            _print_stats("requests_per_s", record["metrics"].get("work_per_s"), "req/s")
    _print_stats("wall_s", wall, "s")
    _print_stats("generation_s", record["generation_s"], "s")
    print(
        f"  {'failed_frac':<14} {_fmt(record['failed_frac'])} ratio  "
        f"({record['failed']}/{record['attempted']} rounds)"
    )
    for problem in dict.fromkeys(record["problems"]):
        print(f"  PROBLEM: {problem.strip()}")
    print(f"  correct: {record['correct']}")


def result_line(record: dict) -> dict:
    """The driver-facing JSON object for one workload."""
    if record["trace"]:
        units = per_layer_units()
        values = record.get("per_layer", {})
        metrics = {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        }
    else:
        metrics = {
            name: {"value": record["metrics"][name]["median"], "unit": unit}
            for name, unit in END_TO_END.items()
            if name in record["metrics"]
        }
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def write_expected(record: dict) -> None:
    table = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    slot = table.setdefault(record["scale"], {}).setdefault(str(record["seed"]), {})
    slot[record["workload"]] = record["digests"]
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def run_all(args) -> int:
    """Every workload, each in its own process (clean RSS and caches)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        for flag in ("seed", "seconds", "trace", "trace_dir", "out"):
            value = getattr(args, flag)
            if value is not None:
                argv += [f"--{flag.replace('_', '-')}", str(value)]
        for flag in ("smoke", "write_expected"):
            if getattr(args, flag):
                argv.append(f"--{flag.replace('_', '-')}")
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            combined["correct"] = False
            continue
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--trace-dir", default=str(HERE / "out"),
        help="where --trace 1 writes trace_<workload>.json",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="toy scale: 400 links, 5k requests, 1 round per workload",
    )
    parser.add_argument("--out", help="append the run record to this JSON file")
    parser.add_argument(
        "--write-expected", action="store_true",
        help="record this run's digests in expected.json",
    )
    parser.add_argument("--child", choices=("import", "pipeline"), help=argparse.SUPPRESS)
    parser.add_argument("--world-seed", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--links", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--requests", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.workload is None:
        return run_all(args)
    record = Runner(args).run()
    print_human(record)
    if args.out:
        append_run(Path(args.out), record)
    if args.write_expected and record["correct"]:
        write_expected(record)
    print(json.dumps(result_line(record), sort_keys=True))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
