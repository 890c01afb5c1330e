"""The four end-to-end workloads: set-up, one round, digests, checks.

Each workload turns ``--seed`` into its inputs (the seed feeds
``WorldConfig.seed`` and ``WorkloadConfig.seed``) in :meth:`setup`
and replays one unit of work per :meth:`round`. The runner times
``setup`` and ``round`` only; :meth:`inspect` then digests what the
round produced and counts its work, from its inputs, so the runner can
report work per second and check every output.

Importing this module imports the program (the pipeline's set-up
times exactly that, in a fresh interpreter).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from digest import sha256

from repro.analysis.study import Study
from repro.clock import SimTime
from repro.dataset.worldgen import WorldConfig, generate_world
from repro.exec import StudyExecutor
from repro.live import GenerationPublisher, IncrementalStudy, ReprobePolicy, WorldDriver
from repro.service import (
    ClusterConfig,
    ClusterService,
    DeltaApply,
    LinkStatusIndex,
    LinkStatusService,
    ServerConfig,
    WorkloadConfig,
    generate_workload,
)

RUN_PY = Path(__file__).resolve().with_name("run.py")

#: Hot-replay requests after each cold pipeline (20k at 2,600 links,
#: scaled down with the world).
PIPELINE_REQUESTS = 5_000

#: Drained delta swaps ``serve_swaps`` applies while serving.
SWAPS = 6


@dataclass(frozen=True)
class Scale:
    """Input sizes and round counts; ``smoke`` is the toy scale."""

    name: str
    pipeline_links: int
    #: Worlds in one pipeline round, each in its own interpreter.
    pipeline_worlds: int
    study_links: int
    #: The study crawls this many category articles, in alphabetical
    #: order, as the paper crawled its first 10,000. A fixed article
    #: count keeps a round's collection and record count steady across
    #: seeds: seeds 1-20 give 1,000-link worlds 93-169 category
    #: articles, and 90-109 records from the first 90.
    study_articles: int
    serve_links: int
    hot_requests: int
    swap_requests: int
    setups: int
    warmups: int
    min_rounds: int


FULL = Scale(
    name="full",
    pipeline_links=300, pipeline_worlds=8,
    study_links=1_000, study_articles=90,
    serve_links=600, hot_requests=30_000, swap_requests=12_000,
    setups=3, warmups=1, min_rounds=3,
)
SMOKE = Scale(
    name="smoke",
    pipeline_links=400, pipeline_worlds=1,
    study_links=400, study_articles=30,
    serve_links=400, hot_requests=5_000, swap_requests=5_000,
    setups=1, warmups=0, min_rounds=1,
)


@dataclass
class RoundOutput:
    """What one round did and produced."""

    #: Which expected-digest slot the digest belongs to.
    key: str
    digest: dict
    #: Units of work (capture events, records, or requests).
    work: int
    #: Per-layer counters read from the program's public results.
    counters: dict = field(default_factory=dict)
    #: Exported tracer states of pipeline children (traced rounds only).
    traces: list = field(default_factory=list)
    #: ``(wall_s, reference_s)`` by the round's own clocks, when the
    #: timed call also did other things (a pipeline child starts an
    #: interpreter and imports the program first, and digests its
    #: outputs after).
    seconds: tuple[float, float] | None = None


def stage(tracer, name: str):
    """A benchmark-side span around one stage (no-op untraced)."""
    return tracer.span(name) if tracer is not None else nullcontext()


def build_world(links: int, seed: int):
    """A world whose study samples every IABot-marked link."""
    return generate_world(
        WorldConfig(n_links=links, target_sample=links, seed=seed)
    )


# -- digests --------------------------------------------------------------------


def world_digest(world) -> str:
    """sha256 over every article's wikitext in title order, the
    snapshot count and ``World.summary()``."""
    parts = []
    for title in world.encyclopedia.titles():
        parts.append(title)
        parts.append(world.encyclopedia.article(title).wikitext)
    parts.append(str(len(world.store)))
    parts.append(world.summary())
    return sha256("\x00".join(parts))


def wire_digest(result) -> str:
    """sha256 of a serve run's concatenated ``Response.to_wire()``."""
    return sha256(b"".join(r.to_wire() for r in result.responses))


def serve_digest(result, requests) -> dict:
    """Wire digest plus the simulated service's virtual-clock outputs
    (p50/p99 and shed rate describe the simulated service, not the
    simulator's wall time). Raises when a request went unanswered."""
    ids = [r.request_id for r in result.responses]
    if ids != sorted(r.request_id for r in requests):
        raise AssertionError(
            "responses do not answer every request once, in id order"
        )
    summary = result.as_dict()
    return {
        "serve": wire_digest(result),
        "p50_ms": summary["p50_ms"],
        "p99_ms": summary["p99_ms"],
        "shed_rate": summary["shed_rate"],
    }


def serve_counters(result) -> dict:
    counter = result.metrics.counter
    return {
        "service.cache.hit_frac": result.cache_hit_rate,
        "service.index.lookups": counter("service.index.lookups").int_value,
        "service.batch.coalesced": counter("service.batch.coalesced").int_value,
        "service.reconfig.events": len(result.reconfig_events),
    }


# -- pipeline -------------------------------------------------------------------


def pipeline_run(world_seed: int, links: int, requests: int, tracer) -> tuple:
    """One cold pipeline: world → serial study → index → hot replay.
    Runs in a fresh interpreter that has just imported the program;
    see :class:`Pipeline`."""
    with stage(tracer, "stage.worldgen"):
        world = build_world(links, world_seed)
    with stage(tracer, "stage.study"):
        report = Study.from_world(world).run(StudyExecutor(workers=1))
    with stage(tracer, "stage.index"):
        index = LinkStatusIndex.build(report)
    with stage(tracer, "stage.serve"):
        stream = generate_workload(
            [entry.url for entry in index.entries],
            WorkloadConfig(
                n_requests=requests, offered_rps=2_000.0, seed=world_seed,
                aggregate_fraction=0.02, unknown_fraction=0.01,
            ),
        )
        result = LinkStatusService(index).serve(stream, mode="serial")
    return world, report, index, stream, result


def pipeline_outputs(world, report, index, stream, result) -> dict:
    """What a pipeline child reports: digest, work and counters."""
    crawler = world.crawler
    return {
        "digest": {
            "world": world_digest(world),
            "report": sha256(report.summary()),
            "index_version": index.version,
            **serve_digest(result, stream),
        },
        "captures": crawler.capture_attempts,
        "stored": (
            crawler.capture_attempts - crawler.capture_failures
            - crawler.robots_denied
        ),
        "counters": serve_counters(result),
    }


class Pipeline:
    """The ROADMAP's end-to-end path, cold, as a CLI user runs it.

    A round is one pass over ``pipeline_worlds`` worlds (world seeds
    ``seed + 100000 * k``), each in a fresh interpreter, so module-level
    caches start cold. Starting an interpreter and importing the
    program is the set-up, timed on its own in interpreters that then
    exit; a round's time is the sum of the pipelines' own clocks after
    their imports. The work is the archive capture events the
    replays execute, an input property of the worlds: world sizes vary
    a lot between seeds, and a pass over several of them, measured in
    capture events, does not.
    """

    name = "pipeline"
    work_unit = "capture events"

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale
        self.min_rounds = 1
        #: Every child starts cold already, so nothing needs warming.
        self.warmups = 0

    def _child(self, *args: str) -> str:
        """Run ``run.py --child ...`` to completion; its standard output."""
        proc = subprocess.run(
            [sys.executable, str(RUN_PY), "--child", *args],
            capture_output=True, text=True, timeout=150, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"pipeline child failed ({proc.returncode}):\n"
                f"{proc.stderr[-2000:]}"
            )
        return proc.stdout

    def setup(self):
        """A fresh interpreter imports the program and exits."""
        self._child("import")

    def setup_digest(self, state) -> dict | None:
        return None

    def round(self, state, tracer) -> list[dict]:
        passes = []
        for k in range(self.scale.pipeline_worlds):
            args = [
                "pipeline",
                "--world-seed", str(self.seed + 100_000 * k),
                "--links", str(self.scale.pipeline_links),
                "--requests", str(PIPELINE_REQUESTS),
            ]
            if tracer is not None:
                args.append("--traced")
            passes.append(json.loads(self._child(*args).strip().splitlines()[-1]))
        return passes

    def inspect(self, state, raw: list[dict]) -> RoundOutput:
        captures = sum(world["captures"] for world in raw)
        counters = {
            name: statistics.fmean(world["counters"][name] for world in raw)
            for name in raw[0]["counters"]
        }
        counters["archive.capture.stored_frac"] = (
            sum(world["stored"] for world in raw) / max(captures, 1)
        )
        return RoundOutput(
            key="round",
            digest={f"world{k}": world["digest"] for k, world in enumerate(raw)},
            work=captures,
            counters=counters,
            traces=[world["trace"] for world in raw if "trace" in world],
            seconds=(
                sum(world["wall_s"] for world in raw),
                sum(world["reference_s"] for world in raw),
            ),
        )


# -- study ----------------------------------------------------------------------


def _study(world, articles: int, workers: int, tracer):
    with stage(tracer, "stage.study"):
        report = Study.from_world(world, article_limit=articles).run(
            StudyExecutor(workers=workers)
        )
    with stage(tracer, "stage.index"):
        index = LinkStatusIndex.build(report)
    return report, index


def _study_digest(report, index) -> dict:
    return {"report": sha256(report.summary()), "index_version": index.version}


class StudyWorkload:
    """The study over a prebuilt world, sharded over two fork workers.

    World generation is set-up, so the collector, the executor and
    its fork pool, the backend caches and the analysis phases carry
    the round.
    """

    name = "study"
    work_unit = "records"
    workers = 2

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale
        self.min_rounds = scale.min_rounds
        self.warmups = scale.warmups

    def setup(self):
        return build_world(self.scale.study_links, self.seed)

    def setup_digest(self, world) -> dict:
        return {"world": world_digest(world)}

    def round(self, world, tracer):
        return _study(world, self.scale.study_articles, self.workers, tracer)

    def inspect(self, world, raw) -> RoundOutput:
        report, built = raw
        stats = report.stats
        counters = {
            "exec.shard_wall_max_s": stats.shard_wall_max,
            "exec.shards": stats.shards,
            "backends.fetch.hit_frac": stats.fetch_cache_hit_rate,
            "backends.cdx.hit_frac": stats.cdx_cache_hit_rate,
        }
        for phase, seconds in stats.phase_seconds.items():
            key = phase.replace("+", "_")
            counters[f"analysis.phase.{key}_s"] = seconds
        return RoundOutput(
            key="round",
            digest=_study_digest(report, built),
            work=len(report.dataset.records),
            counters=counters,
        )

    def verify(self, world, outputs: list[RoundOutput]) -> list[str]:
        """Serial and sharded execution must give the same report."""
        report, built = _study(world, self.scale.study_articles, 1, None)
        if _study_digest(report, built) != outputs[0].digest:
            return ["the serial study differs from the two-worker study"]
        return []


# -- serving --------------------------------------------------------------------


@dataclass
class HotState:
    world: object
    index: LinkStatusIndex
    requests: tuple


class ServeHot:
    """Single-node serving of Zipf-hot, cache-friendly traffic.

    Open loop: Poisson arrivals at 2,000 rps (the token rate), Zipf
    α=1.1 over the studied URLs, 2% aggregates, 1% unknown URLs. The
    result cache and coalescing absorb the head, so the event loop,
    admission and the batcher do the work.
    """

    name = "serve_hot"
    work_unit = "requests"

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale
        self.min_rounds = scale.min_rounds
        self.warmups = scale.warmups

    def setup(self) -> HotState:
        world = build_world(self.scale.serve_links, self.seed)
        report = Study.from_world(world).run(StudyExecutor(workers=1))
        index = LinkStatusIndex.build(report)
        requests = generate_workload(
            [entry.url for entry in index.entries],
            WorkloadConfig(
                n_requests=self.scale.hot_requests, offered_rps=2_000.0,
                zipf_alpha=1.1, seed=self.seed,
                aggregate_fraction=0.02, unknown_fraction=0.01,
            ),
        )
        return HotState(world, index, requests)

    def setup_digest(self, state: HotState) -> dict:
        return {
            "world": world_digest(state.world),
            "index_version": state.index.version,
        }

    def round(self, state: HotState, tracer):
        with stage(tracer, "stage.serve"):
            return LinkStatusService(state.index, ServerConfig()).serve(
                state.requests, mode="serial"
            )

    def inspect(self, state: HotState, result) -> RoundOutput:
        return RoundOutput(
            key="round",
            digest=serve_digest(result, state.requests),
            work=len(state.requests),
            counters=serve_counters(result),
        )


@dataclass
class SwapState:
    world: object
    index: LinkStatusIndex
    versions: tuple[str, ...]
    schedule: list
    requests: tuple
    generation_s: list[float]
    dirty_records: list[int]


class ServeSwaps:
    """A 4×2 cluster serving while six drained delta swaps land.

    Each generation comes from an :class:`IncrementalStudy` rebuild
    after a bot sweep and an editorial removal; set-up times each one
    from ``IncrementalStudy.build`` to a verified ``build_delta``.
    Traffic is diurnal, Zipf α=0.8, 30% unknown URLs (cache misses by
    construction) and 2% aggregates, so routing, answering and
    reconfiguration carry the round.
    """

    name = "serve_swaps"
    work_unit = "requests"

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale
        self.min_rounds = scale.min_rounds
        self.warmups = scale.warmups

    def setup(self) -> SwapState:
        world = build_world(self.scale.serve_links, self.seed)
        inc = IncrementalStudy(world, policy=ReprobePolicy(every_days=30.0))
        driver = WorldDriver(world)
        publisher = GenerationPublisher(retain=SWAPS + 1)
        gen0 = publisher.publish(inc.build(world.study_time))
        sampled = [entry.url for entry in gen0.index.entries]
        base = world.study_time.days
        deltas, generation_s, dirty = [], [], []
        for step in range(1, SWAPS + 1):
            at = SimTime(base + float(step))
            driver.sweep(SimTime(at.days - 0.9))
            _remove_everywhere(world, driver, sampled[-step], at.days - 0.8)
            start = time.perf_counter()
            result = inc.build(at)
            generation = publisher.publish(result)
            delta = publisher.build_delta(publisher.generations[-2], generation)
            generation_s.append(time.perf_counter() - start)
            dirty.append(result.dirty.size)
            deltas.append(delta)
        requests = generate_workload(
            [entry.url for entry in gen0.index.entries],
            WorkloadConfig(
                n_requests=self.scale.swap_requests, offered_rps=2_000.0,
                zipf_alpha=0.8, seed=self.seed, pattern="diurnal",
                aggregate_fraction=0.02, unknown_fraction=0.30,
            ),
        )
        horizon = max(r.arrival_ms for r in requests)
        schedule = [
            DeltaApply(
                at_ms=horizon * (i + 1) / (len(deltas) + 1),
                drain=True, delta=delta,
            )
            for i, delta in enumerate(deltas)
        ]
        return SwapState(
            world=world,
            index=gen0.index,
            versions=tuple(g.version for g in publisher.generations),
            schedule=schedule,
            requests=requests,
            generation_s=generation_s,
            dirty_records=dirty,
        )

    def setup_digest(self, state: SwapState) -> dict:
        return {
            "world": world_digest(state.world),
            "versions": list(state.versions),
        }

    def round(self, state: SwapState, tracer):
        with stage(tracer, "stage.serve"):
            service = ClusterService(
                state.index, ServerConfig(),
                ClusterConfig(
                    n_shards=4, replicas_per_shard=2,
                    policy="least_outstanding",
                ),
            )
            return service.serve(
                state.requests, mode="serial", swaps=state.schedule
            )

    def inspect(self, state: SwapState, result) -> RoundOutput:
        if result.index_versions != state.versions:
            raise AssertionError(
                "the cluster did not install every generation in order"
            )
        if any(r.index_version not in state.versions for r in result.responses):
            raise AssertionError("a response names an unknown generation")
        return RoundOutput(
            key="round",
            digest={
                **serve_digest(result, state.requests),
                "reconfig": [event.as_dict() for event in result.reconfig_events],
            },
            work=len(state.requests),
            counters=serve_counters(result),
        )


def _remove_everywhere(world, driver, url: str, at_days: float) -> None:
    """An editor deletes every reference to ``url``, one edit each."""
    edits = 0
    for title in world.encyclopedia.titles():
        while any(
            ref.url == url
            for ref in world.encyclopedia.article(title).link_refs()
        ):
            driver.remove_link(title, url, SimTime(at_days + edits * 0.001))
            edits += 1


WORKLOADS = {
    cls.name: cls for cls in (Pipeline, StudyWorkload, ServeHot, ServeSwaps)
}
