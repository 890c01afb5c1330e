"""Tests for repro.live — incremental studies and generation swaps.

The contracts pinned here:

- probe-time semantics: ``probe_time(url, T) = max(epoch(T),
  last_touch(url, T))`` is a pure function of the event history, so
  the incremental engine's answer is independent of the cursor
  schedule;
- **golden differentials**: at three cursor schedules × worker counts
  {1, 4}, every incrementally built report is byte-identical to a
  from-scratch :func:`~repro.live.reference_study` of an identically
  driven fresh world at the same sim instant — same
  :class:`~repro.analysis.study.StudyReport`, same content-hash index
  ``version``, same wire answers;
- the event log's URL index agrees with a full scan
  (``verify_index``), and the wiki feed's boundary semantics are
  pinned: integer cursors partition the log exactly at any page size,
  ``link_posted_events_since`` is inclusive at the boundary instant
  and preserves emission order for equal timestamps;
- generation lifecycle: publisher sequence numbers are strictly
  monotonic, retention retires old generations, stale builds are
  refused, and freshness grades through the latency SLO machinery;
- **zero-downtime swaps**: a swap schedule replays byte-for-byte,
  the single node and a 1×1 cluster reproduce the recorded
  single-node golden exactly, and — clean or under replica chaos — no
  response ever mixes generations: every 200 body re-derives from the
  exact index version the response reports, and shed responses carry
  a scheduled version too.
"""

from __future__ import annotations

import pytest

from repro.analysis.study import Study
from repro.clock import SimTime
from repro.dataset.worldgen import WorldConfig, generate_world
from repro.errors import LiveError
from repro.exec import StudyExecutor
from repro.faults import FaultPlan, FaultSpec
from repro.live import (
    GenerationPublisher,
    IncrementalStudy,
    ReprobePolicy,
    WorldDriver,
    last_touch_map,
    probe_time_map,
    reference_study,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import MS_PER_DAY, SloSpec, evaluate, events_from_generations
from repro.retry import DEFAULT_MASKING_POLICY
from repro.service import (
    ClusterConfig,
    ClusterService,
    GenerationSwap,
    LinkStatusIndex,
    LinkStatusService,
    ReconfigError,
    ServerConfig,
    ServiceFaultPlan,
    WorkloadConfig,
    generate_workload,
)
from repro.service.server import answer
from repro.wiki.api import WikiApi
from repro.wiki.events import (
    EventLog,
    LinkMarkedDeadEvent,
    LinkPostedEvent,
    LinkRemovedEvent,
)

# -- the shared driven world -----------------------------------------------------

WORLD_CFG = WorldConfig(n_links=260, seed=11, target_sample=60)
K = 40
SEED = 7
POLICY = ReprobePolicy(every_days=30.0)


def fresh_world():
    return generate_world(WORLD_CFG)


def drive_to(world, driver: WorldDriver, lo: float, hi: float) -> None:
    """Apply the canonical forward script on (lo, hi] day offsets.

    The script exercises every event kind and both store mutations:
    a bot sweep (markings), an editorial removal, an archive capture,
    a late link addition, and a second sweep past the 30-day re-probe
    epoch. Targets are discovered from the world itself so identically
    seeded worlds replay identically.
    """
    base = world.study_time.days

    def within(offset: float) -> bool:
        return lo < offset <= hi

    if within(2.0):
        driver.sweep(SimTime(base + 2.0))
    if within(5.0):
        title, url = driver.permadead_refs()[3]
        assert driver.remove_link(title, url, SimTime(base + 5.0))
    if within(6.0):
        driver.capture(driver.permadead_refs()[1][1], SimTime(base + 6.0))
    if within(7.0):
        title = world.encyclopedia.titles()[0]
        driver.add_link(title, "http://late-addition.test/x", SimTime(base + 7.0))
    if within(33.0):
        driver.sweep(SimTime(base + 33.0))
    if within(36.0):
        title, url = driver.permadead_refs()[0]
        assert driver.remove_link(title, url, SimTime(base + 36.0))


#: From-scratch reference reports, keyed by day offset (worker count
#: is irrelevant to the report — pinned elsewhere — so one suffices).
_REFERENCE_CACHE: dict[float, object] = {}


def reference_report(offset: float):
    if offset not in _REFERENCE_CACHE:
        world = fresh_world()
        driver = WorldDriver(world)
        drive_to(world, driver, 0.0, offset)
        at = SimTime(world.study_time.days + offset)
        study = reference_study(
            world, at, sample_size=K, seed=SEED, policy=POLICY
        )
        _REFERENCE_CACHE[offset] = study.run(StudyExecutor(workers=1))
    return _REFERENCE_CACHE[offset]


# -- probe-time semantics --------------------------------------------------------


def test_reprobe_policy_epochs():
    baseline = SimTime(8000.0)
    policy = ReprobePolicy(every_days=30.0)
    assert policy.epoch(baseline, baseline) == baseline
    assert policy.epoch(baseline, SimTime(8029.9)) == baseline
    assert policy.epoch(baseline, SimTime(8030.0)) == SimTime(8030.0)
    assert policy.epoch(baseline, SimTime(8075.0)) == SimTime(8060.0)
    with pytest.raises(LiveError):
        policy.epoch(baseline, SimTime(7999.0))
    with pytest.raises(LiveError):
        ReprobePolicy(every_days=0.0)


def test_last_touch_map_latest_wins_and_bounds():
    events = [
        LinkPostedEvent("http://a.test/", "A", SimTime(10.0)),
        LinkMarkedDeadEvent("http://a.test/", "A", SimTime(12.0), "Bot"),
        # Equal timestamps: the later-emitted event wins.
        LinkPostedEvent("http://b.test/", "A", SimTime(12.0)),
        LinkRemovedEvent("http://b.test/", "B", SimTime(12.0)),
        LinkPostedEvent("http://c.test/", "C", SimTime(99.0)),
    ]
    touched = last_touch_map(events, SimTime(50.0))
    assert touched["http://a.test/"] == SimTime(12.0)
    assert touched["http://b.test/"] == SimTime(12.0)
    assert "http://c.test/" not in touched  # beyond the horizon


def test_probe_time_map_is_max_of_epoch_and_touch():
    baseline = SimTime(8000.0)
    events = [LinkPostedEvent("http://a.test/", "A", SimTime(8040.0))]
    times = probe_time_map(
        events,
        ["http://a.test/", "http://quiet.test/"],
        baseline,
        SimTime(8065.0),
        ReprobePolicy(every_days=30.0),
    )
    # Epoch at 8060 postdates the touch at 8040 — epoch wins.
    assert times["http://a.test/"] == SimTime(8060.0)
    assert times["http://quiet.test/"] == SimTime(8060.0)
    times = probe_time_map(
        events, ["http://a.test/"], baseline, SimTime(8055.0),
        ReprobePolicy(every_days=30.0),
    )
    # Touch at 8040 postdates the 8030 epoch — touch wins.
    assert times["http://a.test/"] == SimTime(8040.0)


# -- event log index + feed boundary semantics -----------------------------------


def test_event_log_index_agrees_with_scan():
    log = EventLog()
    urls = [f"http://site{i % 3}.test/" for i in range(10)]
    for i, url in enumerate(urls):
        log.append(LinkPostedEvent(url, f"Article {i % 4}", SimTime(float(i))))
    log.append(LinkRemovedEvent(urls[0], "Article 0", SimTime(20.0)))
    log.append(
        LinkMarkedDeadEvent(urls[1], "Article 1", SimTime(21.0), "Bot")
    )
    log.verify_index()
    for url in set(urls):
        assert log.events_for(url) == tuple(
            e for e in log.events() if e.url == url
        )
    assert log.events_for("http://never-seen.test/") == ()


def test_event_log_cursor_pages_partition_exactly():
    log = EventLog()
    for i in range(7):
        log.append(LinkPostedEvent(f"http://u{i}.test/", "A", SimTime(float(i))))
    for limit in (1, 2, 3, None):
        cursor, drained = 0, []
        while cursor < len(log):
            batch, cursor = log.events_since(cursor, limit)
            drained.extend(batch)
        assert tuple(drained) == log.events()
    with pytest.raises(ValueError):
        log.events_since(len(log) + 1)
    with pytest.raises(ValueError):
        log.events_since(-1)


@pytest.fixture(scope="module")
def live_run():
    """One world driven through the whole script with three builds.

    Shared, *already driven* state: tests must not drive it further.
    Returns (world, publisher, generations, results).
    """
    world = fresh_world()
    driver = WorldDriver(world)
    inc = IncrementalStudy(world, sample_size=K, seed=SEED, policy=POLICY)
    publisher = GenerationPublisher(metrics=MetricsRegistry(), retain=2)
    generations, results = [], []
    previous = -1.0
    for offset in (0.0, 10.0, 40.0):
        drive_to(world, driver, previous, offset)
        previous = offset
        result = inc.build(SimTime(world.study_time.days + offset))
        results.append(result)
        generations.append(publisher.publish(result))
    world.encyclopedia.events.verify_index()
    return world, publisher, generations, results


def test_incremental_builds_emit_each_url_once(live_run):
    # The index refuses duplicate URLs; every incremental generation
    # must therefore sample each URL once (cross-article dedup).
    _, _, generations, results = live_run
    for result, generation in zip(results, generations):
        urls = [outcome.record.url for outcome in result.report.outcomes]
        assert len(urls) == len(set(urls)) == len(generation.index)


def test_wiki_feed_cursor_pages_partition_exactly(live_run):
    world, _, _, _ = live_run
    api = WikiApi(world.encyclopedia)
    log = world.encyclopedia.events
    for limit in (1, 7, 100):
        cursor, drained = 0, []
        while True:
            page = api.events_since(cursor, limit=limit)
            drained.extend(page.events)
            cursor = page.next_cursor
            if not page.more:
                break
        assert tuple(drained) == log.events()
        assert cursor == log.cursor


def test_posted_events_since_is_inclusive_and_emission_ordered():
    world = generate_world(WorldConfig(n_links=80, seed=3, target_sample=30))
    encyclopedia = world.encyclopedia
    # One edit introducing two URLs emits two posted events at the
    # same instant, in order of appearance.
    title = encyclopedia.titles()[0]
    since = SimTime(world.study_time.days + 1.0)
    body = encyclopedia.article(title).wikitext
    body += "* [http://equal-a.test/ a]\n* [http://equal-b.test/ b]\n"
    encyclopedia.edit_article(title, since, "Editor", body, comment="two")
    api = WikiApi(encyclopedia)
    got = api.link_posted_events_since(since)
    # Inclusive: both boundary-instant events are delivered, in
    # emission order, with nothing earlier leaking in.
    assert [e.url for e in got] == [
        "http://equal-a.test/", "http://equal-b.test/",
    ]
    assert all(e.posted_at == since for e in got)
    posted = [
        e for e in encyclopedia.events.events()
        if isinstance(e, LinkPostedEvent)
    ]
    assert got == tuple(e for e in posted if not e.posted_at < since)
    # Nudging past the boundary drops both equal-time events.
    assert api.link_posted_events_since(SimTime(since.days + 1e-9)) == ()


# -- golden differentials --------------------------------------------------------

SCHEDULES = {
    "every-checkpoint": (0.0, 10.0, 40.0),
    "coalesced": (0.0, 40.0),
    "late-start": (10.0, 40.0),
}


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("schedule", sorted(SCHEDULES), ids=str)
def test_incremental_matches_from_scratch(schedule, workers):
    world = fresh_world()
    driver = WorldDriver(world)
    inc = IncrementalStudy(world, sample_size=K, seed=SEED, policy=POLICY)
    previous = -1.0
    for offset in SCHEDULES[schedule]:
        drive_to(world, driver, previous, offset)
        previous = offset
        result = inc.build(
            SimTime(world.study_time.days + offset),
            executor=StudyExecutor(workers=workers),
        )
        reference = reference_report(offset)
        assert result.report == reference
        ours = LinkStatusIndex.build(result.report)
        theirs = LinkStatusIndex.build(reference)
        assert ours.version == theirs.version
        for entry in theirs.entries[:5]:
            assert answer(ours, "url", entry.url) == answer(
                theirs, "url", entry.url
            )
        assert answer(ours, "bucket_counts", "") == answer(
            theirs, "bucket_counts", ""
        )


def test_incremental_actually_delta_builds(live_run):
    _, _, _, results = live_run
    gen0, gen1, gen2 = results
    # Generation 0 measures the whole sample; generation 1 only what
    # the script touched; generation 2 crosses the 30-day epoch, so
    # everything falls due again.
    assert gen0.dirty.size == gen0.sample_size
    assert 0 < gen1.dirty.size < gen1.sample_size
    assert gen1.dirty.removed  # the day-5 removal evicted its outcome
    assert gen2.dirty.size == gen2.sample_size
    # Generation 0 drains the full historical backlog; later ones
    # consume only the script's incremental events.
    assert gen0.events_consumed > 100
    assert 0 < gen1.events_consumed < 10
    assert 0 < gen2.events_consumed < 10
    assert gen0.cursor < gen1.cursor < gen2.cursor


# -- retry accounting ------------------------------------------------------------


@pytest.fixture(scope="module")
def retry_world():
    return generate_world(WorldConfig(n_links=300, seed=11))


def _retry_totals(stats) -> tuple:
    return (
        stats.fetch_retries,
        stats.fetch_giveups,
        stats.cdx_retries,
        stats.cdx_giveups,
        stats.backoff_ms,
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_live_retry_totals_match_the_batch_study(retry_world, workers):
    # A live build counts the retries of its stage shards and of its
    # parent phases, exactly as the from-scratch study in the same
    # posture does. The classic unclamped batch study keys its CDX
    # fault draws on different queries, so only its fetch side and
    # the report itself are shared with the live build.
    world = retry_world
    plan = FaultPlan.transient_everywhere(0.2, seed=5)
    executor = StudyExecutor(workers=workers)
    live = IncrementalStudy(
        world, faults=plan, retry_policy=DEFAULT_MASKING_POLICY
    ).build(world.study_time, executor=executor).report
    reference = reference_study(
        world, world.study_time, faults=plan,
        retry_policy=DEFAULT_MASKING_POLICY,
    ).run(executor)
    classic = Study.from_world(
        world, faults=plan, retry_policy=DEFAULT_MASKING_POLICY
    ).run(executor)
    assert live == reference == classic
    assert _retry_totals(live.stats) == _retry_totals(reference.stats)
    assert live.stats.fetch_retries == classic.stats.fetch_retries > 0
    assert live.stats.cdx_retries > 0
    assert live.stats.total_giveups == 0


# -- build-order invariants ------------------------------------------------------


def test_live_build_reports_the_one_worker_that_ran(retry_world):
    # One sampled record, so one dirty record: four workers requested,
    # the single shard runs in-process.
    result = IncrementalStudy(retry_world, sample_size=1).build(
        retry_world.study_time, executor=StudyExecutor(workers=4)
    )
    stats = result.report.stats
    assert result.dirty.size == 1
    assert stats.workers == stats.shards == 1
    assert "executor: 1 worker(s), 1 shard(s)" in stats.summary()


def test_live_ordering_invariants():
    world = generate_world(WorldConfig(n_links=80, seed=3, target_sample=30))
    driver = WorldDriver(world)
    base = world.study_time.days
    with pytest.raises(LiveError):
        driver.sweep(world.study_time)  # not strictly forward
    inc = IncrementalStudy(world, sample_size=10, seed=SEED, policy=POLICY)
    inc.build(world.study_time)
    with pytest.raises(LiveError):
        inc.build(world.study_time)  # builds must move forward
    # Drive the world *past* the next build instant: the engine must
    # refuse rather than silently measure a half-seen world.
    title = world.encyclopedia.titles()[0]
    driver.add_link(title, "http://future.test/x", SimTime(base + 5.0))
    with pytest.raises(LiveError):
        inc.build(SimTime(base + 2.0))


# -- generation lifecycle --------------------------------------------------------


def test_publisher_sequences_retires_and_meters(live_run):
    _, publisher, generations, _ = live_run
    g0, g1, g2 = generations
    assert [g.seq for g in generations] == [1, 2, 3]
    assert len({g.version for g in generations}) == 3
    assert publisher.current is g2
    # retain=2: the first generation retired, the last two are live.
    assert publisher.retired == [g0.version]
    assert [g.version for g in publisher.generations] == [
        g1.version, g2.version,
    ]
    assert (g0.lag_days, g1.lag_days, g2.lag_days) == (0.0, 10.0, 30.0)
    counters = publisher.metrics.counters("live.")
    assert counters["live.generations.published"] == 3
    assert counters["live.generations.retired"] == 1
    assert publisher.metrics.gauge("live.generation.seq").value == 3.0


def test_publisher_refuses_stale_and_bad_retention(live_run):
    _, publisher, _, results = live_run
    with pytest.raises(LiveError):
        publisher.publish(results[0])  # built before the current one
    with pytest.raises(LiveError):
        GenerationPublisher(retain=0)


def test_freshness_slo_grades_generation_lag(live_run):
    _, _, generations, _ = live_run
    events = events_from_generations(generations)
    assert [e.latency_ms / MS_PER_DAY for e in events] == [0.0, 10.0, 30.0]
    assert all(e.status == 200 for e in events)
    within_35d = SloSpec(
        name="freshness", kind="latency", objective=1.0,
        threshold_ms=35.0 * MS_PER_DAY,
    )
    within_20d = SloSpec(
        name="freshness", kind="latency", objective=1.0,
        threshold_ms=20.0 * MS_PER_DAY,
    )
    assert evaluate(events, (within_35d,)).met
    assert not evaluate(events, (within_20d,)).met


# -- zero-downtime swaps ---------------------------------------------------------


def swap_workload(index, n=600, rps=2000.0, seed=3):
    return generate_workload(
        [entry.url for entry in index.entries],
        WorkloadConfig(
            n_requests=n, offered_rps=rps, seed=seed,
            aggregate_fraction=0.1, unknown_fraction=0.05,
        ),
    )


def swap_schedule(requests, generations):
    """Install later generations at the workload's 1/3 and 2/3 marks."""
    _, g1, g2 = generations
    horizon = max(r.arrival_ms for r in requests)
    return [
        GenerationSwap(at_ms=horizon / 3.0, index=g1.index),
        GenerationSwap(at_ms=2.0 * horizon / 3.0, index=g2.index),
    ]


def assert_no_mixed_generation(result, requests, generations):
    """Every response answers from exactly the generation it reports."""
    by_version = {g.version: g.index for g in generations}
    by_id = {r.request_id: r for r in requests}
    for response in result.responses:
        assert response.index_version in by_version
        if response.shed:
            continue
        request = by_id[response.request_id]
        status, body = answer(
            by_version[response.index_version], request.kind, request.target
        )
        assert (status, body) == (response.status, response.body)


def test_single_node_swap_replays_and_never_mixes_generations(live_run):
    _, _, generations, _ = live_run
    g0, g1, g2 = generations
    requests = swap_workload(g0.index)
    swaps = swap_schedule(requests, generations)
    serial = LinkStatusService(g0.index).serve(requests, swaps=list(swaps))
    again = LinkStatusService(g0.index).serve(requests, swaps=list(swaps))
    assert [r.to_wire() for r in serial.responses] == [
        r.to_wire() for r in again.responses
    ]
    # Generation ids march monotonically through the schedule, and
    # both swaps actually took.
    assert serial.index_versions == (g0.version, g1.version, g2.version)
    served = {r.index_version for r in serial.responses}
    assert served == {g0.version, g1.version, g2.version}
    assert serial.metrics.counter("service.swaps").int_value == 2
    assert_no_mixed_generation(serial, requests, generations)


def test_swap_schedule_must_strictly_increase(live_run):
    _, _, generations, _ = live_run
    g0, g1, _ = generations
    requests = swap_workload(g0.index, n=20)
    with pytest.raises(ReconfigError, match="strictly increasing"):
        LinkStatusService(g0.index).serve(
            requests,
            swaps=[
                GenerationSwap(at_ms=100.0, index=g1.index),
                GenerationSwap(at_ms=100.0, index=g0.index),
            ],
        )


def swap_digest(result, golden) -> dict:
    """What the single-node golden records for one swap-schedule run."""
    return {
        "responses_sha256": golden.responses_sha(result.responses),
        "wire_sha256": golden.wire_sha(result.responses),
        "index_versions": list(result.index_versions),
        "reconfig_events": [e.as_dict() for e in result.reconfig_events],
    }


def test_one_by_one_cluster_swap_reproduces_single_node(live_run, serve_golden):
    _, _, generations, _ = live_run
    g0 = generations[0]
    requests = swap_workload(g0.index)
    swaps = swap_schedule(requests, generations)

    def single_node() -> dict:
        result = LinkStatusService(g0.index).serve(requests, swaps=list(swaps))
        return swap_digest(result, serve_golden)

    golden = serve_golden.section("live_swaps", single_node)
    assert single_node() == golden
    cluster = ClusterService(
        g0.index, ServerConfig(),
        ClusterConfig(n_shards=1, replicas_per_shard=1),
    ).serve(requests, swaps=list(swaps))
    assert swap_digest(cluster, serve_golden) == golden


def test_cluster_swap_under_chaos_never_mixes_generations(live_run):
    _, _, generations, _ = live_run
    g0 = generations[0]
    requests = swap_workload(g0.index)
    swaps = swap_schedule(requests, generations)
    plan = ServiceFaultPlan(
        seed=5,
        replica_crash=FaultSpec(rate=0.5),
        crash_horizon_ms=float(max(r.arrival_ms for r in requests)),
        crash_duration_ms=40.0,
        replica_slow=FaultSpec(rate=0.3),
    )

    def run():
        service = ClusterService(
            g0.index, ServerConfig(),
            ClusterConfig(n_shards=2, replicas_per_shard=2),
            faults=plan,
        )
        return service.serve(requests, swaps=list(swaps))

    chaotic = run()
    assert chaotic.fault_events  # the plan actually fired
    assert chaotic.index_versions == tuple(g.version for g in generations)
    assert_no_mixed_generation(chaotic, requests, generations)
    # Chaos degrades latency and shedding only — and deterministically:
    # the run replays byte-for-byte.
    again = run()
    assert [r.to_wire() for r in chaotic.responses] == [
        r.to_wire() for r in again.responses
    ]


@pytest.mark.chaos
@pytest.mark.parametrize(
    "topology", [(2, 2), (4, 1), (1, 3)], ids=lambda t: f"{t[0]}x{t[1]}"
)
@pytest.mark.parametrize("policy", ["round_robin", "least_outstanding"])
def test_swap_chaos_grid(live_run, topology, policy):
    """Tier-2 sweep: swaps stay clean across topologies and policies
    under the full replica fault vocabulary (crash + partition + slow).
    """
    _, _, generations, _ = live_run
    g0 = generations[0]
    requests = swap_workload(g0.index, n=1500, rps=3000.0)
    swaps = swap_schedule(requests, generations)
    horizon = max(r.arrival_ms for r in requests)
    n_shards, replicas = topology
    plan = ServiceFaultPlan(
        seed=13,
        replica_crash=FaultSpec(rate=0.4),
        crash_horizon_ms=horizon,
        crash_duration_ms=60.0,
        replica_partition=FaultSpec(rate=0.3),
        partition_horizon_ms=horizon,
        partition_duration_ms=50.0,
        replica_slow=FaultSpec(rate=0.3),
    )

    def run():
        return ClusterService(
            g0.index, ServerConfig(),
            ClusterConfig(
                n_shards=n_shards, replicas_per_shard=replicas,
                policy=policy,
            ),
            faults=plan,
        ).serve(requests, swaps=list(swaps))

    chaotic = run()
    assert chaotic.index_versions == tuple(g.version for g in generations)
    assert_no_mixed_generation(chaotic, requests, generations)
    again = run()
    assert [r.to_wire() for r in chaotic.responses] == [
        r.to_wire() for r in again.responses
    ]
