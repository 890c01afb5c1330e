"""Incremental studies: re-measure only what the world changed.

:class:`IncrementalStudy` maintains a study result across a *moving*
world. Instead of re-running the full §2.4→§5 pipeline every time the
wiki edits, the archive crawls, or a re-probe epoch passes, it:

1. drains the wiki's lifecycle event feed from its cursor
   (:meth:`~repro.wiki.api.WikiApi.events_since`) and folds the events
   into a last-touch map and a dirty-article set;
2. refreshes the collection incrementally — only event-touched
   articles and category-membership changes are re-mined, everything
   else replays from the per-article cache — then re-samples exactly
   as the batch pipeline would;
3. computes the dirty URL set (new to the sample, re-probe due —
   which includes every event-touched URL — or carrying changed
   record metadata) and runs *only those* through the ordinary
   :class:`~repro.exec.StudyExecutor`, with each record's probe
   instant pinned by :func:`~repro.live.feed.probe_time_map` and its
   CDX horizon frozen there (``bound_archive``);
4. folds cached outcomes for clean records together with the fresh
   ones, in record order, and assembles the report through the same
   :func:`~repro.analysis.study.assemble_report` parent phases a batch
   study uses — with a fresh seeded RNG registry per generation, so
   the soft-404 stream draws identically to a from-scratch run.

The contract (pinned by the golden differential tests in
``tests/test_live.py``): the report of every generation is
byte-identical — same index ``version`` hash, same wire answers — to
:func:`reference_study` run from scratch at the same sim instant,
whatever the cursor schedule and whatever the shard count.

Why cached outcomes stay valid while the world grows: every event and
capture appended after a build happens strictly later than that build
(the :class:`~repro.live.driver.WorldDriver` enforces it; this engine
asserts it), and a clean record's CDX queries are clamped to its probe
instant — so nothing added since can appear inside a cached record's
horizon. The parent-phase aggregations (§3 soft-404 screening, §4
splits, §5 temporal/spatial/typos) query the *current* store on both
sides and are recomputed in full each generation — they are cheap
joins over per-record results, and caching them would entangle the
RNG stream with history.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..analysis.study import Study, assemble_report
from ..backends.stacks import BackendStack
from ..clock import SimTime
from ..dataset.collector import CollectedLink, Collector
from ..dataset.records import LinkRecord
from ..dataset.sampler import sample_iabot_marked
from ..errors import LiveError
from ..exec import StudyExecutor, StudyStats
from ..faults import FaultPlan
from ..obs.trace import Tracer
from ..retry import RetryPolicy
from ..rng import RngRegistry
from ..wiki.api import WikiApi
from .feed import ReprobePolicy, probe_time_map

__all__ = [
    "DirtySet",
    "IncrementalStudy",
    "LiveStudyResult",
    "reference_study",
]


@dataclass(frozen=True, slots=True)
class DirtySet:
    """What one generation actually had to re-measure.

    ``new`` joined the sample this generation; ``reprobe_due`` were
    already sampled but their probe instant moved (an epoch boundary
    passed, or a lifecycle event touched them — any touch since the
    last build strictly advances the probe instant); ``changed`` kept
    their probe instant but their mined record metadata differs
    (defensive — history is append-only, so this is rare); ``removed``
    left the sample and had their cached outcomes evicted.
    """

    new: tuple[str, ...] = ()
    reprobe_due: tuple[str, ...] = ()
    changed: tuple[str, ...] = ()
    removed: tuple[str, ...] = ()

    @property
    def size(self) -> int:
        """URLs re-executed this generation (removals cost nothing)."""
        return len(self.new) + len(self.reprobe_due) + len(self.changed)

    def summary(self) -> str:
        return (
            f"dirty={self.size} (new={len(self.new)}, "
            f"reprobe={len(self.reprobe_due)}, changed={len(self.changed)}) "
            f"removed={len(self.removed)}"
        )


@dataclass(frozen=True)
class LiveStudyResult:
    """One generation's report plus its incremental accounting."""

    report: object
    built_at: SimTime
    ordinal: int
    dirty: DirtySet
    events_consumed: int
    cursor: int
    sample_size: int
    rebuild_wall_ms: float

    def summary(self) -> str:
        return (
            f"gen#{self.ordinal} at {self.built_at}: "
            f"{self.sample_size} records, {self.dirty.summary()}, "
            f"{self.events_consumed} events consumed "
            f"(cursor={self.cursor}), rebuilt in "
            f"{self.rebuild_wall_ms:.1f} ms"
        )


class IncrementalStudy:
    """A study kept current against a forward-moving world."""

    def __init__(
        self,
        world,
        sample_size: int | None = None,
        article_limit: int | None = None,
        seed: int = 20220315,
        policy: ReprobePolicy | None = None,
        faults: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        self._world = world
        self._api = WikiApi(world.encyclopedia)
        self._collector = Collector(world.encyclopedia, world.site_rankings)
        stack = BackendStack(faults=faults, retry_policy=retry_policy)
        self._fetcher = stack.fetcher(world)
        self._cdx = stack.cdx(world.cdx)
        self._retry_policy = retry_policy
        self._seed = seed
        self._k = (
            sample_size
            if sample_size is not None
            else world.config.target_sample
        )
        self._article_limit = article_limit
        self._baseline: SimTime = world.study_time
        self._policy = policy if policy is not None else ReprobePolicy()
        # -- incremental state -------------------------------------------------------
        self._cursor = 0
        self._touched: dict[str, SimTime] = {}
        self._mined: dict[str, list[CollectedLink]] = {}
        self._members: tuple[str, ...] = ()
        #: url -> (record, probe instant, outcome) from the last build.
        self._outcomes: dict[str, tuple[LinkRecord, SimTime, object]] = {}
        self._last_built: SimTime | None = None
        self._ordinal = -1

    @property
    def cursor(self) -> int:
        """Events consumed so far (the feed resume point)."""
        return self._cursor

    # -- event consumption ---------------------------------------------------------

    def _consume_events(self, at: SimTime) -> tuple[int, set[str]]:
        """Drain the feed up to its current cursor; fold touches.

        Returns ``(events consumed, dirty article titles)``. Enforces
        the store-growth invariant: every event must post-date the
        previous build (otherwise a cached outcome could be stale) and
        must not post-date this build's instant (the world must not
        have been driven past the point we are measuring at).
        """
        consumed = 0
        dirty_articles: set[str] = set()
        while True:
            page = self._api.events_since(self._cursor)
            for event in page.events:
                if self._last_built is not None and not (
                    self._last_built < event.at
                ):
                    raise LiveError(
                        f"event at {event.at} does not post-date the "
                        f"previous build at {self._last_built}; cached "
                        "outcomes cannot be trusted"
                    )
                if at < event.at:
                    raise LiveError(
                        f"event at {event.at} post-dates the build "
                        f"instant {at}; drive the build forward instead"
                    )
                self._touched[event.url] = event.at
                dirty_articles.add(event.article_title)
                consumed += 1
            self._cursor = page.next_cursor
            if not page.more:
                return consumed, dirty_articles

    # -- incremental collection ----------------------------------------------------

    def _collect(self, dirty_articles: set[str]) -> list[CollectedLink]:
        """Re-mine only what moved; replay the rest from cache.

        Reproduces :meth:`~repro.dataset.collector.Collector.collect`
        exactly: alphabetical category members, ``article_limit``
        slice, cross-article URL dedup in title order. An article is
        re-mined when an event touched it or when it entered/left the
        sliced member set (leaving matters on re-entry: the cache
        entry may predate edits made while it was outside).
        """
        members = self._collector.category_titles()
        if self._article_limit is not None:
            members = members[: self._article_limit]
        membership_change = set(members) ^ set(self._members)
        for title in members:
            if (
                title not in self._mined
                or title in dirty_articles
                or title in membership_change
            ):
                self._mined[title] = self._collector.mine_article(title)
        self._members = members
        collected: list[CollectedLink] = []
        seen: set[str] = set()
        for title in members:
            for link in self._mined[title]:
                if link.url in seen:
                    continue
                seen.add(link.url)
                collected.append(link)
        return collected

    # -- the build -----------------------------------------------------------------

    def build(
        self,
        at: SimTime,
        executor: StudyExecutor | None = None,
        tracer: Tracer | None = None,
    ) -> LiveStudyResult:
        """Bring the study current to sim instant ``at``.

        Generation zero (nothing cached) measures everything — at the
        baseline it *is* the classic batch study. Later generations
        re-execute only the dirty set and fold.
        """
        wall_start = time.perf_counter()
        if self._last_built is not None and not (self._last_built < at):
            raise LiveError(
                f"builds must move forward: last {self._last_built}, "
                f"requested {at}"
            )
        if at < self._baseline:
            raise LiveError("cannot build before the study baseline")
        executor = executor if executor is not None else StudyExecutor()

        consumed, dirty_articles = self._consume_events(at)
        collected = self._collect(dirty_articles)
        sampled = sample_iabot_marked(collected, self._k, seed=self._seed)
        dataset = self._collector.to_dataset(sampled, description="our dataset")
        records = dataset.records

        # Dirty-set computation against the probe-time map.
        epoch = self._policy.epoch(self._baseline, at)
        probe_map: dict[str, SimTime] = {}
        new: list[str] = []
        reprobe: list[str] = []
        changed: list[str] = []
        for record in records:
            touch = self._touched.get(record.url)
            p = touch if touch is not None and epoch < touch else epoch
            probe_map[record.url] = p
            cached = self._outcomes.get(record.url)
            if cached is None:
                new.append(record.url)
            elif cached[1] != p:
                reprobe.append(record.url)
            elif cached[0] != record:
                changed.append(record.url)
        sampled_urls = {record.url for record in records}
        removed = tuple(sorted(set(self._outcomes) - sampled_urls))
        for url in removed:
            del self._outcomes[url]
        dirty = DirtySet(
            new=tuple(new),
            reprobe_due=tuple(reprobe),
            changed=tuple(changed),
            removed=removed,
        )
        dirty_urls = set(new) | set(reprobe) | set(changed)

        # Delta execution: only dirty records run the sharded stage.
        dirty_records = [r for r in records if r.url in dirty_urls]
        stats = StudyStats()
        with stats.phase("probe+census", tracer=tracer):
            stage = executor.execute(
                dirty_records, self._fetcher, self._cdx, at, stats, tracer,
                at_overrides=probe_map, bound_archive=True,
                retry_policy=self._retry_policy,
            )
        stats.registry.counter("live.dirty.executed").inc(len(dirty_records))
        stats.registry.counter("live.clean.folded").inc(
            len(records) - len(dirty_records)
        )

        # Fold: fresh outcomes for dirty records, cached for clean —
        # in record order, seeding the stage's fetch memo with cached
        # probe results so the soft-404 phase's re-fetches hit the
        # memo exactly as they would after a from-scratch stage.
        fresh = {o.record.url: o for o in stage.outcomes}
        merged = []
        for record in records:
            outcome = fresh.get(record.url)
            if outcome is None:
                outcome = self._outcomes[record.url][2]
                stage.fetcher.seed(
                    record.url, probe_map[record.url], outcome.probe.result
                )
            merged.append(outcome)
            self._outcomes[record.url] = (
                record, probe_map[record.url], outcome,
            )

        report = assemble_report(
            dataset=dataset,
            outcomes=merged,
            fetcher=stage.fetcher,
            cdx=stage.cdx,
            at=at,
            rngs=RngRegistry(self._seed),
            stats=stats,
            tracer=tracer,
            at_overrides=probe_map,
        )
        self._last_built = at
        self._ordinal += 1
        return LiveStudyResult(
            report=report,
            built_at=at,
            ordinal=self._ordinal,
            dirty=dirty,
            events_consumed=consumed,
            cursor=self._cursor,
            sample_size=len(records),
            rebuild_wall_ms=(time.perf_counter() - wall_start) * 1000.0,
        )


def reference_study(
    world,
    at: SimTime,
    sample_size: int | None = None,
    article_limit: int | None = None,
    seed: int = 20220315,
    policy: ReprobePolicy | None = None,
    faults: FaultPlan | None = None,
    retry_policy: RetryPolicy | None = None,
) -> Study:
    """The from-scratch study an incremental build must byte-match.

    Collects and samples against the world's *current* state, computes
    the probe-time map from the *full* event log, and configures a
    classic :class:`~repro.analysis.study.Study` in the live posture
    (per-record probe instants, archive horizon frozen at each). The
    world must not have been driven past ``at``.
    """
    policy = policy if policy is not None else ReprobePolicy()
    collector = Collector(world.encyclopedia, world.site_rankings)
    collected = collector.collect(article_limit=article_limit)
    k = sample_size if sample_size is not None else world.config.target_sample
    sampled = sample_iabot_marked(collected, k, seed=seed)
    dataset = collector.to_dataset(sampled, description="our dataset")
    probe_map = probe_time_map(
        world.encyclopedia.events.events(),
        [record.url for record in dataset.records],
        world.study_time,
        at,
        policy,
    )
    stack = BackendStack(faults=faults, retry_policy=retry_policy)
    return Study(
        records=dataset.records,
        fetcher=stack.fetcher(world),
        cdx=stack.cdx(world.cdx),
        at=at,
        rngs=RngRegistry(seed),
        retry_policy=retry_policy,
        at_overrides=probe_map,
        bound_archive=True,
    )
