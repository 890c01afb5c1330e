"""Demo: the link-status service, from cold study to overload sweep.

Usage::

    python scripts/serve_demo.py [n_links] [seed] [options]

    --requests N      requests per load level (default 5000)
    --rps R           service capacity, token-bucket rate (default 2000)
    --levels L,L,...  offered-load multiples of --rps (default 0.5,1,2,4)
    --spike-rate R    inject index latency spikes at per-key rate R
    --shards N        domain shards (default 1: the single node)
    --replicas R      replicas per shard (default 1)
    --policy P        round_robin | least_outstanding | power_of_two
    --crash-rate R    per-replica crash probability (replica chaos)
    --pattern P       poisson | flash | diurnal arrival process
    --trace PATH      append the service span tree as JSONL
                      (service → request → index-lookup); feed it to
                      scripts/trace_report.py
    --audit-log PATH  write one per-request audit JSONL per load
                      level (PATH stem gains a "-<level>x" suffix);
                      feed it to scripts/slo_report.py
    --metrics-json PATH
                      write one canonical metrics snapshot JSON per
                      load level (same suffix scheme)

Builds a world, runs the batch study, freezes it into a
:class:`~repro.service.LinkStatusIndex`, then replays seeded Zipf
traffic at each offered load and prints the per-level digest: virtual
throughput, p50/p99 latency, cache hit rate, shed rate. The same
traffic can be served by N shards × R replicas — run two topologies
and diff the response surface: identical when chaos is off. Every
number except wall time is deterministic in (world seed, workload
seed, config) — run it twice and diff.
"""

import argparse
import sys
import time
from pathlib import Path

from repro.analysis.study import Study
from repro.dataset.worldgen import WorldConfig, generate_world
from repro.faults import FaultSpec
from repro.obs import Tracer, render_json
from repro.service import (
    AuditLog,
    ClusterConfig,
    ClusterService,
    LinkStatusIndex,
    ServerConfig,
    ServiceFaultPlan,
    WorkloadConfig,
    generate_workload,
)


def _level_path(path: Path, level: float) -> Path:
    """Per-level output file: request ids repeat across load levels,
    so each level gets its own artifact."""
    return path.with_name(f"{path.stem}-{level:g}x{path.suffix}")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Serve a completed study and sweep offered load."
    )
    parser.add_argument("n_links", nargs="?", type=int, default=2600)
    parser.add_argument("seed", nargs="?", type=int, default=11)
    parser.add_argument("--requests", type=int, default=5000)
    parser.add_argument("--rps", type=float, default=2000.0)
    parser.add_argument("--levels", default="0.5,1,2,4")
    parser.add_argument("--spike-rate", type=float, default=0.0)
    parser.add_argument("--shards", type=int, default=1)
    parser.add_argument("--replicas", type=int, default=1)
    parser.add_argument(
        "--policy",
        choices=("round_robin", "least_outstanding", "power_of_two"),
        default="round_robin",
    )
    parser.add_argument("--crash-rate", type=float, default=0.0)
    parser.add_argument(
        "--pattern", choices=("poisson", "flash", "diurnal"), default="poisson"
    )
    parser.add_argument("--trace", type=Path, default=None)
    parser.add_argument("--audit-log", type=Path, default=None)
    parser.add_argument("--metrics-json", type=Path, default=None)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    levels = [float(part) for part in args.levels.split(",") if part]

    print(f"world: {args.n_links} links, seed {args.seed}")
    world = generate_world(
        WorldConfig(
            n_links=args.n_links, target_sample=args.n_links, seed=args.seed
        )
    )
    start = time.perf_counter()
    report = Study.from_world(world).run()
    index = LinkStatusIndex.build(report)
    print(
        f"study + index build: {time.perf_counter() - start:.1f}s -> "
        f"{len(index)} entries, version {index.version}"
    )

    config = ServerConfig(rate_rps=args.rps)
    faults = None
    if args.spike_rate or args.crash_rate:
        faults = ServiceFaultPlan(
            seed=args.seed,
            index_spike=FaultSpec(rate=args.spike_rate, permanent=True),
            replica_crash=FaultSpec(rate=args.crash_rate, permanent=True),
        )
    tracer = Tracer() if args.trace else None
    urls = [entry.url for entry in index.entries]
    print(
        f"cluster: {args.shards} shards x {args.replicas} replicas, "
        f"policy {args.policy}"
    )
    for level in levels:
        workload = generate_workload(
            urls,
            WorkloadConfig(
                n_requests=args.requests,
                offered_rps=args.rps * level,
                seed=args.seed,
                aggregate_fraction=0.02,
                unknown_fraction=0.01,
                pattern=args.pattern,
            ),
        )
        audit = AuditLog() if args.audit_log else None
        service = ClusterService(
            index,
            config,
            ClusterConfig(
                n_shards=args.shards,
                replicas_per_shard=args.replicas,
                policy=args.policy,
            ),
            tracer=tracer,
            faults=faults,
            audit=audit,
        )
        wall_start = time.perf_counter()
        result = service.serve(workload)
        wall = time.perf_counter() - wall_start
        print()
        print(f"== offered {args.rps * level:g} rps ({level:g}x capacity) ==")
        print(result.summary())
        print(
            f"redispatches {result.redispatches}; "
            f"gave up (503) {len(result.unavailable_ids)}; "
            f"replica fault events {len(result.fault_events)}"
        )
        digest = result.replica_digest()
        for replica_id in result.replica_ids:
            lookups = digest[replica_id].get("service.index.lookups", 0)
            ok = digest[replica_id].get("service.requests.ok", 0)
            print(f"  {replica_id}: {int(ok)} ok, {int(lookups)} lookups")
        print(f"replay wall: {wall:.3f}s")
        if audit is not None:
            audit_path = _level_path(args.audit_log, level)
            written = audit.write_jsonl(audit_path)
            print(f"wrote {written} audit records to {audit_path}")
        if args.metrics_json is not None:
            metrics_path = _level_path(args.metrics_json, level)
            metrics_path.write_text(
                render_json(result.metrics), encoding="utf-8"
            )
            print(f"wrote metrics snapshot to {metrics_path}")

    if tracer is not None:
        written = tracer.write_jsonl(args.trace)
        print(f"\nwrote {written} spans to {args.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
