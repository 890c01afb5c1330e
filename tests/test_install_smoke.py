"""Install smoke test: a numpy-free interpreter must work end-to-end.

The original bug: ``repro.textsim.shingles`` imported numpy
unconditionally, so a clean ``pip install repro`` (no extras) broke
``repro.archive.crawler`` — world generation died inside
:class:`~repro.archive.crawler.BodySketcher` before a single capture.

These tests recreate that clean-install world inside a subprocess
whose ``sys.meta_path`` makes ``import numpy`` raise (the
``fresh_python`` fixture), then drive the exact path that used to
break: import the crawler, sketch bodies, and generate a whole (tiny)
world. The parent process compares the subprocess's sketches, world
census and rendered golden report against its own — when numpy is
installed here, that is a full differential check of the numpy and
pure-Python kernels riding along for free.
"""

from __future__ import annotations

import json

import pytest

#: Bodies covering the sketching edge cases: normal prose, repeated
#: tokens, fewer tokens than the shingle width, one token, and empty.
SAMPLE_BODIES = [
    "the quick brown fox jumps over the lazy dog again and again",
    "alpha beta gamma delta epsilon zeta eta theta iota kappa",
    "alpha alpha alpha alpha alpha alpha alpha alpha",
    "short body",
    "one",
    "",
]

#: WorldConfig kwargs for the tiny end-to-end crawl.
TINY_WORLD = {"n_links": 80, "target_sample": 40, "seed": 11}

_CHILD_SCRIPT = """
import json, sys

import repro.numerics as numerics

assert numerics.BACKEND == "stdlib", (
    "blocked numpy but backend is " + numerics.BACKEND
)

from repro.archive.crawler import BodySketcher
from repro.dataset.worldgen import WorldConfig, generate_world
from repro.textsim.shingles import minhash_sketch

payload = json.loads(sys.stdin.read())
sketcher = BodySketcher()
world = generate_world(WorldConfig(**payload["world"]))
print(
    json.dumps(
        {
            "backend": numerics.BACKEND,
            "minhash": [list(minhash_sketch(t)) for t in payload["texts"]],
            "sketcher": [list(sketcher.sketch(t)) for t in payload["texts"]],
            "snapshots": len(world.store),
            "snapshot_urls": world.store.url_count(),
            "capture_attempts": world.crawler.capture_attempts,
            "sketch_misses": world.crawler._sketcher.misses,
        }
    )
)
"""


@pytest.fixture(scope="module")
def child_report(fresh_python) -> dict:
    """The numpy-free child's JSON report."""
    return json.loads(
        fresh_python(
            _CHILD_SCRIPT,
            block_numpy=True,
            stdin=json.dumps({"texts": SAMPLE_BODIES, "world": TINY_WORLD}),
        )
    )


def test_numpy_free_interpreter_selects_stdlib_backend(child_report):
    assert child_report["backend"] == "stdlib"


def test_numpy_free_crawler_sketches_match_this_process(child_report):
    """Sketches without numpy equal sketches with it (when present)."""
    from repro.archive.crawler import BodySketcher
    from repro.textsim.shingles import minhash_sketch

    sketcher = BodySketcher()
    assert child_report["minhash"] == [
        list(minhash_sketch(t)) for t in SAMPLE_BODIES
    ]
    assert child_report["sketcher"] == [
        list(sketcher.sketch(t)) for t in SAMPLE_BODIES
    ]


def test_numpy_free_world_generation_crawls_cleanly(child_report):
    """A whole tiny world builds without numpy, identically to here."""
    from repro.dataset.worldgen import WorldConfig, generate_world

    assert child_report["snapshots"] > 0
    assert child_report["capture_attempts"] > 0
    world = generate_world(WorldConfig(**TINY_WORLD))
    assert child_report["snapshots"] == len(world.store)
    assert child_report["snapshot_urls"] == world.store.url_count()
    assert child_report["capture_attempts"] == world.crawler.capture_attempts
    assert child_report["sketch_misses"] == world.crawler._sketcher.misses


def test_golden_report_bytes_identical_without_numpy(fresh_python):
    """The golden study renders byte-identically without numpy.

    The end-to-end form of the kernel differential tests in
    ``tests/test_columnar.py``: world generation, every analysis
    phase, ECDF and figure rendering in a numpy-free child, compared
    as raw text with this process's render. (The committed snapshot
    comparison lives in ``tests/test_golden_report.py``; this test
    pins numpy independence even when the snapshot is regenerated.)
    """
    from repro.reporting.golden import render_golden_report

    script = (
        "import sys\n"
        "from repro.reporting.golden import render_golden_report\n"
        "sys.stdout.write(render_golden_report())\n"
    )
    assert fresh_python(script, block_numpy=True) == render_golden_report()
