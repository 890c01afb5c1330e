"""Benchmark fixtures: one full-scale world per session.

The world scale is configurable so CI can run smaller:

    REPRO_BENCH_LINKS=26000 pytest benchmarks/ --benchmark-only

Defaults to 12,000 wiki links (~5,000 permanently dead links in the
sample), which reproduces every shape at about a third of the paper's
scale in a few minutes. ``REPRO_BENCH_WORKERS`` shards the session's
study run across worker processes (default 1: serial keeps the
benchmark numbers free of multiprocessing noise; any value yields the
same report).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis.study import Study
from repro.dataset.collector import Collector
from repro.dataset.sampler import sample_iabot_marked
from repro.dataset.worldgen import WorldConfig, generate_world
from repro.exec import StudyExecutor

BENCH_LINKS = int(os.environ.get("REPRO_BENCH_LINKS", "12000"))
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "11"))
#: The paper samples 10,000; we sample proportionally to world size.
BENCH_SAMPLE = int(os.environ.get("REPRO_BENCH_SAMPLE", "10000"))
BENCH_WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))

#: Where benches write their BENCH_*.json digests. Defaults to the
#: repo root (the committed copies EXPERIMENTS.md quotes); the smoke
#: test points it at a tmp dir so toy-scale runs never clobber them.
BENCH_OUT = Path(
    os.environ.get("REPRO_BENCH_OUT", Path(__file__).resolve().parent.parent)
)


@pytest.fixture(scope="session")
def paper_scale() -> bool:
    """Whether the world is big enough for paper-figure assertions.

    The ComparisonTable bands and headline shape claims reproduce the
    paper's percentages, which only stabilize near the full benchmark
    scale. The toy-scale smoke run (tests/test_bench_smoke.py) still
    executes every benchmark end-to-end — builds, measures, prints,
    writes digests — but skips the figure comparisons, which would
    hold a few-hundred-link world to paper-scale percentages.
    """
    return BENCH_LINKS >= 4000


@pytest.fixture(scope="session")
def bench_out():
    """Resolver for BENCH_*.json output paths (honors REPRO_BENCH_OUT)."""

    def resolve(name: str) -> Path:
        BENCH_OUT.mkdir(parents=True, exist_ok=True)
        return BENCH_OUT / name

    return resolve


@pytest.fixture(scope="session")
def world():
    """The benchmark universe (built once per session)."""
    config = WorldConfig(
        n_links=BENCH_LINKS, target_sample=BENCH_SAMPLE, seed=BENCH_SEED
    )
    return generate_world(config)


@pytest.fixture(scope="session")
def report(world):
    """The full study over the benchmark universe, on the clean,
    retry-less stack the benchmarks report on."""
    executor = StudyExecutor(workers=BENCH_WORKERS)
    return Study.from_world(world).run(executor=executor)


@pytest.fixture(scope="session")
def study_stats(report):
    """Execution accounting (phase timings, cache hit rates) for the
    session's study run."""
    return report.stats


@pytest.fixture(scope="session")
def random_sample_dataset(world):
    """The paper's representativeness control: links sampled from the
    whole category rather than the alphabetical prefix."""
    collector = Collector(world.encyclopedia, world.site_rankings)
    collected = collector.collect()  # every category article
    sampled = sample_iabot_marked(
        collected, world.config.target_sample, seed=20220901
    )
    return collector.to_dataset(sampled, description="random sample")
