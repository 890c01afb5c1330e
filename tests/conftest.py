"""Shared fixtures.

Two tiers:

- hand-built micro-webs (function-scoped, cheap) for unit tests that
  need precise control over lifecycles;
- one small generated world + its study report (session-scoped, a few
  seconds) for integration tests over the full pipeline.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import pytest


def pytest_load_initial_conftests(early_config, parser, args):
    """Arm coverage for full tier-1 runs — when pytest-cov is present.

    The container image does not ship pytest-cov, so enforcement is
    gated: importable plugin → append ``--cov`` (the floor lives in
    ``[tool.coverage.report] fail_under``); missing plugin → run
    exactly as before. Narrowed invocations (explicit paths, ``-k``,
    or an existing ``--cov``) are left alone — a subset run can never
    meet a whole-tree floor and should not fail for it. Set
    ``REPRO_NO_COV=1`` to opt out entirely.
    """
    if os.environ.get("REPRO_NO_COV"):
        return
    try:
        import pytest_cov  # noqa: F401
    except ImportError:
        return
    if any(not arg.startswith("-") for arg in args):
        return
    if any(arg.startswith(("--cov", "-k")) for arg in args):
        return
    args.append("--cov=repro")

from repro.clock import SimTime
from repro.dataset.worldgen import WorldConfig, generate_world
from repro.web.behaviors import MissingPagePolicy
from repro.web.page import Page, PageFate
from repro.web.site import Site
from repro.web.world import LiveWeb

#: Subsystems the tier-1 suite must keep exercised. Importing them
#: from the session root guarantees each is inside the ``--cov=repro``
#: measurement (an un-imported package contributes zero lines, which
#: would let a subsystem silently drop out of the fail_under tripwire
#: if a refactor orphaned its tests).
COVERAGE_CONCERNS = (
    "repro.analysis.study",
    "repro.backends",
    "repro.exec",
    "repro.faults",
    "repro.obs",
    "repro.service",
    "repro.service.reconfig",
)


@pytest.fixture(scope="session", autouse=True)
def _coverage_concerns():
    import importlib

    for name in COVERAGE_CONCERNS:
        importlib.import_module(name)


T2005 = SimTime.from_ymd(2005, 1, 1)
T2008 = SimTime.from_ymd(2008, 1, 1)
T2012 = SimTime.from_ymd(2012, 6, 1)
T2016 = SimTime.from_ymd(2016, 6, 1)
T2020 = SimTime.from_ymd(2020, 1, 1)
T2022 = SimTime.from_ymd(2022, 3, 15)


@pytest.fixture
def micro_web() -> LiveWeb:
    """A tiny live web with one site exercising several lifecycles.

    Pages on news.example.com:
      /stays/alive.html          alive since 2008
      /gone/deleted.html         alive 2008, deleted 2012
      /moved/late.html           alive 2008, moved 2012, redirect added 2020
      /moved/prompt.html         alive 2008, moved+redirected 2012
      /new/late-target.html      the late-moved page's new home
      /new/prompt-target.html    the prompt-moved page's new home
    """
    web = LiveWeb()
    site = Site(
        hostname="news.example.com",
        seed="micro",
        created_at=T2005,
        missing_policy=MissingPagePolicy.HARD_404,
    )
    site.add_page(Page(path_query="/stays/alive.html", created_at=T2008))
    site.add_page(
        Page(
            path_query="/gone/deleted.html",
            created_at=T2008,
            fate=PageFate.DELETED,
            died_at=T2012,
        )
    )
    site.add_page(
        Page(
            path_query="/moved/late.html",
            created_at=T2008,
            fate=PageFate.MOVED,
            died_at=T2012,
            moved_to="http://news.example.com/new/late-target.html",
            redirect_added_at=T2020,
        )
    )
    site.add_page(
        Page(
            path_query="/moved/prompt.html",
            created_at=T2008,
            fate=PageFate.MOVED,
            died_at=T2012,
            moved_to="http://news.example.com/new/prompt-target.html",
            redirect_added_at=T2012,
        )
    )
    site.add_page(Page(path_query="/new/late-target.html", created_at=T2012))
    site.add_page(Page(path_query="/new/prompt-target.html", created_at=T2012))
    web.add_site(site)
    return web


@pytest.fixture(scope="session")
def small_world():
    """A small but complete generated universe (shared, read-only)."""
    return generate_world(WorldConfig(n_links=1300, target_sample=1300, seed=42))


@pytest.fixture(scope="session")
def small_report(small_world):
    """The full study report over :func:`small_world` (read-only)."""
    from repro.analysis.study import Study

    return Study.from_world(small_world).run()


@pytest.fixture
def artifact_dir(tmp_path):
    """Where diagnostic artifacts (audit logs, traces, metrics
    snapshots) should be written.

    Defaults to the test's tmp dir. When ``REPRO_TEST_ARTIFACTS`` is
    set (CI sets it on the tier-2 job), artifacts land there instead,
    so a failing run's evidence survives as a workflow artifact."""
    root = os.environ.get("REPRO_TEST_ARTIFACTS")
    if not root:
        return tmp_path
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


#: ``REPRO_UPDATE_GOLDENS=1 pytest <files>`` re-records every golden the
#: selected tests compare against (only for a deliberate behaviour
#: change); without it the goldens are read-only.
UPDATE_GOLDENS = bool(os.environ.get("REPRO_UPDATE_GOLDENS"))

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def update_goldens() -> bool:
    """Whether this run re-records the goldens it compares against."""
    return UPDATE_GOLDENS


class JsonGolden:
    """A committed JSON golden: named sections of recorded digests."""

    def __init__(self, filename: str) -> None:
        self.path = GOLDEN_DIR / filename

    def section(self, name: str, record):
        """The recorded section ``name``. Under
        ``REPRO_UPDATE_GOLDENS=1`` it is first re-recorded as
        ``record()``."""
        golden = (
            json.loads(self.path.read_text()) if self.path.exists() else {}
        )
        if UPDATE_GOLDENS:
            golden[name] = record()
            self.path.write_text(
                json.dumps(golden, indent=2, sort_keys=True) + "\n"
            )
        return golden[name]


class ServeGolden(JsonGolden):
    """The recorded single-node serving output.

    ``tests/golden/single_node_serve.json`` holds digests of what the
    single-node service answered — full responses (timing and
    ``source`` included), shed ids, counters, and reconfiguration
    events — recorded from the dedicated single-node event loop before
    that loop was folded into the one serving engine (a 1×1 cluster).
    The differential tests compare the engine against it, so a match
    *is* the proof that the fold changed no answer and no latency.
    """

    def __init__(self) -> None:
        super().__init__("single_node_serve.json")

    @staticmethod
    def responses_sha(responses) -> str:
        """sha256 over every full response, timing and source included."""
        payload = json.dumps(
            [dataclasses.asdict(r) for r in responses],
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    @staticmethod
    def wire_sha(responses) -> str:
        """sha256 over the concatenated answer surface (``to_wire``)."""
        return hashlib.sha256(
            b"".join(r.to_wire() for r in responses)
        ).hexdigest()


@pytest.fixture(scope="session")
def serve_golden() -> ServeGolden:
    return ServeGolden()


class WorldGolden(JsonGolden):
    """The recorded digest of generated worlds.

    ``tests/golden/world_digest.json`` holds, per named world, sha256
    digests over everything world generation produces: every
    article's full revision history, every snapshot (sketch included)
    in URL and time order, the crawler's counters, the bot's stats and
    ``World.summary()``. A match proves a change to the replay left
    the generated world byte-identical.
    """

    def __init__(self) -> None:
        super().__init__("world_digest.json")

    @staticmethod
    def _sha(payload) -> str:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    @classmethod
    def digest(cls, world) -> dict:
        """Digests of every part of ``world`` the replay writes."""
        enc = world.encyclopedia
        articles = [
            [
                title,
                [
                    [
                        rev.revision_id,
                        repr(rev.timestamp.days),
                        rev.user,
                        rev.comment,
                        rev.wikitext,
                    ]
                    for rev in enc.article(title).revisions
                ],
            ]
            for title in enc.titles()
        ]
        snapshots = [
            [
                url,
                [
                    [
                        repr(snap.captured_at.days),
                        snap.initial_status,
                        snap.redirect_location,
                        snap.final_status,
                        snap.final_url,
                        list(snap.sketch),
                    ]
                    for snap in world.store.snapshots(url, include_failed=True)
                ],
            ]
            for url in world.store.all_urls()
        ]
        crawler = world.crawler
        return {
            "articles_sha": cls._sha(articles),
            "snapshots_sha": cls._sha(snapshots),
            "snapshot_count": len(world.store),
            "capture_attempts": crawler.capture_attempts,
            "capture_failures": crawler.capture_failures,
            "robots_denied": crawler.robots_denied,
            "bot_stats": dataclasses.asdict(world.bot.stats),
            "summary": world.summary(),
        }

    def section(self, name: str, world) -> dict:
        """The recorded digest ``name`` (re-recorded from ``world``
        under ``REPRO_UPDATE_GOLDENS=1``)."""
        return super().section(name, lambda: self.digest(world))


@pytest.fixture(scope="session")
def world_golden() -> WorldGolden:
    return WorldGolden()


@pytest.fixture(scope="session")
def stack_golden() -> JsonGolden:
    """``tests/golden/stack_differential.json``: one report digest per
    backend-stack scenario (see ``tests/test_backends.py``)."""
    return JsonGolden("stack_differential.json")
