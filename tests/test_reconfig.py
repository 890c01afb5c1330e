"""Tests for repro.service.reconfig — the unified reconfiguration plane.

The contracts pinned here:

- **golden delta differentials**: at three cursor schedules × worker
  counts {1, 4}, applying the publisher's
  :class:`~repro.service.reconfig.GenerationDelta` to the previous
  generation produces an index **byte-identical** to the full
  snapshot — same content-hash ``version``, same entry tuple, same
  wire answers — and the delta is always smaller than the snapshot;
- schedule validation happens **up front**: untyped entries,
  duplicate instants, empty indexes, no-op swaps, broken delta chains,
  and malformed rebalances all raise :class:`ReconfigError` before any
  request replays;
- **drained rolling swaps**: with ``drain=True`` each replica
  finishes its queued batch under the old generation before
  rebinding; runs replay byte-for-byte, no response mixes generations
  (clean or under the replica crash/partition/slow grid), and the recorded
  :class:`ReconfigEvent` lag is the actual drain time;
- **live rebalancing**: a mid-replay
  :class:`~repro.service.reconfig.RebalancePlan` migrates routing
  keys between shards with the faults-off cluster ≡ single-node
  equivalence intact, and :func:`plan_rebalance` moves exactly the
  keys HRW says must move (minimal disruption, pinned by hypothesis);
- the event log's ``verify_index`` failure paths actually fail, and
  ``events_since`` at cursor == end-of-log returns an empty page
  without advancing.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimTime
from repro.errors import LiveError, ReproError
from repro.exec import StudyExecutor
from repro.faults import FaultSpec
from repro.live import GenerationPublisher, IncrementalStudy, WorldDriver
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import events_from_reconfigs
from repro.service import (
    ClusterConfig,
    ClusterService,
    DeltaApply,
    GenerationDelta,
    GenerationSwap,
    LinkStatusIndex,
    LinkStatusService,
    RebalancePlan,
    ReconfigError,
    ServerConfig,
    ServiceFaultPlan,
    apply_delta,
    normalize_schedule,
    plan_rebalance,
    rendezvous_owner,
    snapshot_wire_bytes,
)
from repro.service.server import answer

from test_live import (
    K,
    POLICY,
    SCHEDULES,
    SEED,
    assert_no_mixed_generation,
    drive_to,
    fresh_world,
    swap_workload,
)

# -- the shared driven publisher --------------------------------------------------


@pytest.fixture(scope="module")
def reconfig_run():
    """One world driven through the canonical script, all three
    generations retained (the delta chain needs every link alive).

    Shared, already-driven state: tests must not drive it further.
    Returns (publisher, generations).
    """
    world = fresh_world()
    driver = WorldDriver(world)
    inc = IncrementalStudy(world, sample_size=K, seed=SEED, policy=POLICY)
    publisher = GenerationPublisher(metrics=MetricsRegistry(), retain=3)
    generations = []
    previous = -1.0
    for offset in (0.0, 10.0, 40.0):
        drive_to(world, driver, previous, offset)
        previous = offset
        result = inc.build(SimTime(world.study_time.days + offset))
        generations.append(publisher.publish(result))
    assert len({g.version for g in generations}) == 3
    return publisher, generations


def delta_chain(generations):
    return [
        GenerationDelta.between(a.index, b.index)
        for a, b in zip(generations, generations[1:])
    ]


def swap_instants(requests):
    horizon = max(r.arrival_ms for r in requests)
    return (horizon / 3.0, 2.0 * horizon / 3.0)


# -- golden delta differentials ---------------------------------------------------


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("schedule", sorted(SCHEDULES), ids=str)
def test_delta_applied_index_is_byte_identical(schedule, workers):
    """At every cursor schedule × worker count, the delta rebuilds the
    full snapshot exactly: version, entries, and wire answers."""
    world = fresh_world()
    driver = WorldDriver(world)
    inc = IncrementalStudy(world, sample_size=K, seed=SEED, policy=POLICY)
    previous = -1.0
    serving = None
    for offset in SCHEDULES[schedule]:
        drive_to(world, driver, previous, offset)
        previous = offset
        result = inc.build(
            SimTime(world.study_time.days + offset),
            executor=StudyExecutor(workers=workers),
        )
        snapshot = LinkStatusIndex.build(result.report)
        if serving is not None and snapshot.version != serving.version:
            delta = GenerationDelta.between(serving, snapshot)
            rebuilt = apply_delta(serving, delta)
            assert rebuilt.version == snapshot.version
            assert rebuilt.entries == snapshot.entries
            assert rebuilt.gap_days == snapshot.gap_days
            for entry in snapshot.entries[:5]:
                assert answer(rebuilt, "url", entry.url) == answer(
                    snapshot, "url", entry.url
                )
            assert answer(rebuilt, "bucket_counts", "") == answer(
                snapshot, "bucket_counts", ""
            )
            # Byte savings hold whenever the dirty set is a proper
            # subset; a schedule gap past the re-probe epoch (the
            # "coalesced" cursor) legitimately touches everything,
            # and there a delta costs its positions extra.
            touched = len(delta.upserts) + len(delta.removals)
            if touched < len(snapshot):
                assert delta.wire_bytes() < snapshot_wire_bytes(snapshot)
        serving = snapshot


def test_delta_is_the_dirty_subset_not_the_snapshot(reconfig_run):
    _, generations = reconfig_run
    g0, g1, _ = generations
    delta = GenerationDelta.between(g0.index, g1.index)
    # The script touches a few URLs between builds 1 and 2 — the delta
    # ships those, not the whole sample.
    assert 0 < len(delta.upserts) + len(delta.removals) < len(g1.index)
    assert delta.from_version == g0.version
    assert delta.to_version == g1.version
    assert delta.delta_id.startswith("gd-")
    assert delta.delta_id in delta.summary()


def test_apply_delta_refuses_wrong_base_and_corruption(reconfig_run):
    _, generations = reconfig_run
    g0, g1, g2 = generations
    delta = GenerationDelta.between(g0.index, g1.index)
    with pytest.raises(ReconfigError):
        apply_delta(g2.index, delta)  # wrong serving generation
    bad_position = GenerationDelta(
        from_version=delta.from_version,
        to_version=delta.to_version,
        upserts=tuple(
            (10_000, entry) for _, entry in delta.upserts[:1]
        ),
        removals=delta.removals,
        gap_days=delta.gap_days,
    )
    with pytest.raises(ReconfigError):
        apply_delta(g0.index, bad_position)
    assert issubclass(ReconfigError, ReproError)


def test_apply_delta_refuses_a_url_upserted_twice(reconfig_run):
    _, generations = reconfig_run
    g0, g1, _ = generations
    delta = GenerationDelta.between(g0.index, g1.index)
    assert delta.upserts
    twice = GenerationDelta(
        from_version=delta.from_version,
        to_version=delta.to_version,
        upserts=delta.upserts + delta.upserts[:1],
        removals=delta.removals,
        gap_days=delta.gap_days,
    )
    with pytest.raises(ReconfigError, match="upserted twice"):
        apply_delta(g0.index, twice)


def test_publisher_build_delta_and_metrics(reconfig_run):
    publisher, generations = reconfig_run
    g0, g1, g2 = generations
    # Defaults: previous retained generation -> current.
    delta = publisher.build_delta()
    assert (delta.from_version, delta.to_version) == (
        g1.version, g2.version,
    )
    explicit = publisher.build_delta(g0, g1)
    assert (explicit.from_version, explicit.to_version) == (
        g0.version, g1.version,
    )
    counters = publisher.metrics.counters("live.")
    assert counters["live.deltas.built"] >= 2
    savings = publisher.metrics.gauge("live.delta.savings_ratio").value
    assert 0.0 < savings < 1.0
    lonely = GenerationPublisher()
    with pytest.raises(LiveError):
        lonely.build_delta()


def test_publisher_history_walks_retained_generations(reconfig_run):
    publisher, generations = reconfig_run
    covered = generations[0].index.entries[0].url
    states = publisher.history(covered)
    assert [s.seq for s in states] == [g.seq for g in generations]
    assert all(
        s.version == g.version for s, g in zip(states, generations)
    )
    assert any(s.entry is not None for s in states)
    assert all(
        (s.bucket is None) == (s.entry is None) for s in states
    )
    # A URL the study never sampled still gets a full timeline, all
    # "not covered".
    ghost = publisher.history("http://never-sampled.test/x")
    assert len(ghost) == len(generations)
    assert all(s.entry is None for s in ghost)
    assert "not covered" in ghost[0].summary()
    # n limits to the most recent generations.
    assert [s.seq for s in publisher.history(covered, n=2)] == [
        generations[-2].seq, generations[-1].seq,
    ]
    with pytest.raises(LiveError):
        publisher.history(covered, n=0)


# -- up-front schedule validation -------------------------------------------------


def test_schedule_rejects_duplicate_instants(reconfig_run):
    _, generations = reconfig_run
    g0, g1, _ = generations
    with pytest.raises(ReconfigError, match="strictly increasing"):
        normalize_schedule(
            [
                GenerationSwap(at_ms=100.0, index=g1.index),
                GenerationSwap(at_ms=100.0, index=g0.index),
            ],
            g0.index,
        )


def test_schedule_rejects_empty_index(reconfig_run):
    _, generations = reconfig_run
    g0 = generations[0]
    with pytest.raises(ReconfigError, match="empty index"):
        normalize_schedule(
            [GenerationSwap(at_ms=50.0, index=LinkStatusIndex(entries=()))],
            g0.index,
        )


def test_schedule_rejects_noop_swap_and_noop_delta(reconfig_run):
    _, generations = reconfig_run
    g0, g1, _ = generations
    with pytest.raises(ReconfigError, match="re-installs"):
        normalize_schedule(
            [GenerationSwap(at_ms=50.0, index=g0.index)], g0.index
        )
    # The chain is walked: installing g1 then g1 again is a no-op at
    # schedule position 2 even though g1 != g0.
    with pytest.raises(ReconfigError, match="re-installs"):
        normalize_schedule(
            [
                GenerationSwap(at_ms=50.0, index=g1.index),
                GenerationSwap(at_ms=60.0, index=g1.index),
            ],
            g0.index,
        )


def test_schedule_rejects_broken_delta_chain(reconfig_run):
    _, generations = reconfig_run
    g0, g1, g2 = generations
    d01, d12 = delta_chain(generations)
    # d12 applies to g1, but g0 is serving at its instant.
    with pytest.raises(ReconfigError, match="broken delta chain"):
        normalize_schedule([DeltaApply(at_ms=50.0, delta=d12)], g0.index)
    # Correct chains pass, mixed with full-snapshot swaps.
    ops = normalize_schedule(
        [
            DeltaApply(at_ms=50.0, delta=d01),
            GenerationSwap(at_ms=80.0, index=g2.index),
        ],
        g0.index,
    )
    assert [op.kind for op in ops] == ["delta", "swap"]
    with pytest.raises(ReconfigError, match="carries no delta"):
        normalize_schedule([DeltaApply(at_ms=50.0)], g0.index)
    with pytest.raises(ReconfigError, match="Reconfiguration instances"):
        normalize_schedule([42.0], g0.index)


def test_schedule_rejects_untyped_pairs(reconfig_run):
    """A bare ``(at_ms, index)`` pair is not a reconfiguration: the
    schedule gate names it instead of converting it, and its error is
    no ``ValueError``."""
    _, generations = reconfig_run
    g0, g1, _ = generations
    pair = (50.0, g1.index)
    with pytest.raises(ReconfigError, match=r"got \(50\.0, ") as caught:
        normalize_schedule([pair], g0.index)
    assert not isinstance(caught.value, ValueError)
    assert not issubclass(ReconfigError, ValueError)
    with pytest.raises(ReconfigError):
        LinkStatusService(g0.index).serve(
            swap_workload(g0.index, n=20), swaps=[pair]
        )


def test_schedule_rejects_malformed_rebalances(reconfig_run):
    _, generations = reconfig_run
    g0 = generations[0]
    move = RebalancePlan(at_ms=50.0, moves=(("a.test", "shard-0"),))
    with pytest.raises(ReconfigError, match="nothing to move"):
        normalize_schedule([move], g0.index)
    with pytest.raises(ReconfigError, match="1 shard"):
        normalize_schedule([move], g0.index, shard_ids=("shard-0",))
    shards = ("shard-0", "shard-1")
    with pytest.raises(ReconfigError, match="moves nothing"):
        normalize_schedule(
            [RebalancePlan(at_ms=50.0)], g0.index,
            shard_ids=shards,
        )
    with pytest.raises(ReconfigError, match="twice"):
        normalize_schedule(
            [RebalancePlan(at_ms=50.0, moves=(
                ("a.test", "shard-0"), ("a.test", "shard-1"),
            ))],
            g0.index, shard_ids=shards,
        )
    with pytest.raises(ReconfigError, match="unknown"):
        normalize_schedule(
            [RebalancePlan(at_ms=50.0, moves=(("a.test", "shard-9"),))],
            g0.index, shard_ids=shards,
        )
    ok = normalize_schedule(
        [move], g0.index, shard_ids=shards
    )
    assert ok[0].kind == "rebalance"
    # Single-node serve() rejects rebalances through the same gate,
    # as does any one-shard fleet: the gate is the shard count.
    requests = swap_workload(g0.index, n=20)
    with pytest.raises(ReconfigError):
        LinkStatusService(g0.index).serve(requests, swaps=[move])
    with pytest.raises(ReconfigError, match="1 shard"):
        ClusterService(
            g0.index, cluster=ClusterConfig(n_shards=1, replicas_per_shard=2)
        ).serve(requests, swaps=[move])


# -- delta swaps through the serving tiers ----------------------------------------


def test_delta_apply_serves_identically_to_snapshot_swap(reconfig_run):
    _, generations = reconfig_run
    g0, g1, g2 = generations
    requests = swap_workload(g0.index)
    t1, t2 = swap_instants(requests)
    d01, d12 = delta_chain(generations)
    via_snapshots = LinkStatusService(g0.index).serve(
        requests,
        swaps=[
            GenerationSwap(at_ms=t1, index=g1.index),
            GenerationSwap(at_ms=t2, index=g2.index),
        ],
    )
    via_deltas = LinkStatusService(g0.index).serve(
        requests,
        swaps=[
            DeltaApply(at_ms=t1, delta=d01),
            DeltaApply(at_ms=t2, delta=d12),
        ],
    )
    assert [r.to_wire() for r in via_snapshots.responses] == [
        r.to_wire() for r in via_deltas.responses
    ]
    assert via_snapshots.index_versions == via_deltas.index_versions
    assert [e.kind for e in via_deltas.reconfig_events] == [
        "delta", "delta",
    ]
    assert [e.kind for e in via_snapshots.reconfig_events] == [
        "swap", "swap",
    ]
    assert all(e.lag_ms == 0.0 for e in via_deltas.reconfig_events)
    assert via_deltas.metrics.counter(
        "service.reconfig.applied"
    ).int_value == 2


# -- drained rolling swaps --------------------------------------------------------


def drained_swaps(requests, generations):
    _, g1, g2 = generations
    t1, t2 = swap_instants(requests)
    return [
        GenerationSwap(at_ms=t1, drain=True, index=g1.index),
        GenerationSwap(at_ms=t2, drain=True, index=g2.index),
    ]


def test_single_node_drained_swap_finishes_batch_under_old_binding(
    reconfig_run,
):
    _, generations = reconfig_run
    g0 = generations[0]
    requests = swap_workload(g0.index)
    serial = LinkStatusService(g0.index).serve(
        requests, swaps=drained_swaps(requests, generations)
    )
    again = LinkStatusService(g0.index).serve(
        requests, swaps=drained_swaps(requests, generations)
    )
    assert [r.to_wire() for r in serial.responses] == [
        r.to_wire() for r in again.responses
    ]
    assert serial.index_versions == tuple(g.version for g in generations)
    assert_no_mixed_generation(serial, requests, generations)
    events = serial.reconfig_events
    assert [e.kind for e in events] == ["swap", "swap"]
    assert all(e.lag_ms >= 0.0 for e in events)
    # At this offered load a batch is open at the swap instants, so at
    # least one cutover actually drained (positive lag).
    assert sum(e.drained_batches for e in events) >= 1
    assert max(e.lag_ms for e in events) > 0.0
    slo_events = events_from_reconfigs(events)
    assert [e.latency_ms for e in slo_events] == sorted(
        e.lag_ms for e in events
    )


def test_drained_swap_answers_match_atomic_generationwise(reconfig_run):
    """Drain changes *when* each response's generation cuts over, not
    what any generation answers: re-deriving every response from its
    reported generation is exactly the no-mixing contract, checked
    against a schedule where drains landed late."""
    _, generations = reconfig_run
    g0 = generations[0]
    requests = swap_workload(g0.index, n=900, rps=4000.0)
    result = LinkStatusService(g0.index).serve(
        requests, swaps=drained_swaps(requests, generations)
    )
    assert_no_mixed_generation(result, requests, generations)
    drained = [e for e in result.reconfig_events if e.drained_batches]
    for event in drained:
        assert event.applied_ms > event.scheduled_ms


def test_cluster_rolling_drained_swap_under_chaos(reconfig_run):
    """Rolling per-replica drains under crash + slow chaos: replicas
    cut over one by one, yet no response ever mixes generations and
    the run replays byte-for-byte."""
    _, generations = reconfig_run
    g0 = generations[0]
    requests = swap_workload(g0.index)
    swaps = drained_swaps(requests, generations)
    plan = ServiceFaultPlan(
        seed=5,
        replica_crash=FaultSpec(rate=0.5),
        crash_horizon_ms=float(max(r.arrival_ms for r in requests)),
        crash_duration_ms=40.0,
        replica_slow=FaultSpec(rate=0.3),
    )

    def run():
        return ClusterService(
            g0.index, ServerConfig(),
            ClusterConfig(n_shards=2, replicas_per_shard=2),
            faults=plan,
        ).serve(requests, swaps=list(swaps))

    chaotic = run()
    assert chaotic.fault_events
    assert chaotic.index_versions == tuple(g.version for g in generations)
    assert_no_mixed_generation(chaotic, requests, generations)
    assert [e.kind for e in chaotic.reconfig_events] == ["swap", "swap"]
    again = run()
    assert [r.to_wire() for r in chaotic.responses] == [
        r.to_wire() for r in again.responses
    ]


def test_drained_swaps_under_faults_registry_snapshot_matches_golden(
    reconfig_run, registry_golden
):
    """A 4×2 fleet under drained swaps and replica crash/partition/slow
    chaos: every instrument the run creates — fault transitions,
    re-dispatches, reconfiguration lag, per-replica families — and
    each float sum, as recorded."""
    _, generations = reconfig_run
    g0 = generations[0]
    requests = swap_workload(g0.index, n=900, rps=3000.0)
    plan = ServiceFaultPlan(
        seed=11,
        index_spike=FaultSpec(rate=0.1),
        cache_fault=FaultSpec(rate=0.1),
        replica_crash=FaultSpec(rate=0.5),
        replica_partition=FaultSpec(rate=0.3),
        replica_slow=FaultSpec(rate=0.3),
        crash_horizon_ms=float(max(r.arrival_ms for r in requests)),
        crash_duration_ms=40.0,
        catchup_ms=30.0,
    )

    def run():
        result = ClusterService(
            g0.index, ServerConfig(),
            ClusterConfig(n_shards=4, replicas_per_shard=2),
            faults=plan,
        ).serve(requests, swaps=drained_swaps(requests, generations))
        assert result.fault_events and result.redispatches
        return json.loads(json.dumps(result.metrics.snapshot()))

    assert run() == registry_golden.section(
        "cluster_4x2_drained_swaps_faults", run
    )


# -- live shard rebalancing -------------------------------------------------------


def hot_keys(index, count=3):
    """The busiest routing keys (registrable domains) in the index."""
    sizes: dict[str, int] = {}
    for entry in index.entries:
        sizes[entry.domain] = sizes.get(entry.domain, 0) + 1
    return sorted(sizes, key=lambda d: (-sizes[d], d))[:count]


def cross_shard_moves(service, keys):
    """Move each key off the shard that owns it (a real migration)."""
    moves = []
    for key in keys:
        owner = rendezvous_owner(key, service.shard_ids)
        target = next(s for s in service.shard_ids if s != owner)
        moves.append((key, target))
    return tuple(moves)


def test_mid_replay_rebalance_keeps_single_node_equivalence(reconfig_run):
    """Moving hot domains between shards mid-replay must be invisible
    at the wire: the faults-off cluster stays byte-identical to the
    single-node run, which never rebalances at all."""
    _, generations = reconfig_run
    g0 = generations[0]
    requests = swap_workload(g0.index)
    single = LinkStatusService(g0.index).serve(requests)

    def run():
        service = ClusterService(
            g0.index, ServerConfig(),
            ClusterConfig(n_shards=2, replicas_per_shard=2),
        )
        plan = RebalancePlan(
            at_ms=swap_instants(requests)[0],
            moves=cross_shard_moves(service, hot_keys(g0.index)),
        )
        return service, service.serve(
            requests, swaps=[plan]
        )

    service, result = run()
    assert [r.to_wire() for r in single.responses] == [
        r.to_wire() for r in result.responses
    ]
    # The generation never changed; ownership did.
    assert result.index_versions == (g0.version,)
    (event,) = result.reconfig_events
    assert event.kind == "rebalance"
    assert event.moved_keys == 3
    assert event.from_version == event.to_version == g0.version
    for key, target in cross_shard_moves(service, hot_keys(g0.index)):
        moved_to = service.shard_for("domain", key)
        assert moved_to == target
    assert result.metrics.counter(
        "service.cluster.rebalanced_keys"
    ).int_value == 3
    _, again = run()
    assert [r.to_wire() for r in result.responses] == [
        r.to_wire() for r in again.responses
    ]


def test_rebalance_composes_with_drained_swaps_under_chaos(reconfig_run):
    """The full plane at once: a drained generation swap, a mid-replay
    rebalance, and a second swap, under replica chaos — zero mixed
    generations, deterministic replay."""
    _, generations = reconfig_run
    g0 = generations[0]
    requests = swap_workload(g0.index)
    t1, t2 = swap_instants(requests)
    plan = ServiceFaultPlan(
        seed=9,
        replica_crash=FaultSpec(rate=0.4),
        crash_horizon_ms=float(max(r.arrival_ms for r in requests)),
        crash_duration_ms=50.0,
    )

    def run():
        service = ClusterService(
            g0.index, ServerConfig(),
            ClusterConfig(n_shards=2, replicas_per_shard=2),
            faults=plan,
        )
        swaps = [
            GenerationSwap(
                at_ms=t1, drain=True, index=generations[1].index
            ),
            RebalancePlan(
                at_ms=(t1 + t2) / 2.0,
                moves=cross_shard_moves(service, hot_keys(g0.index, 2)),
            ),
            GenerationSwap(
                at_ms=t2, drain=True, index=generations[2].index
            ),
        ]
        return service.serve(requests, swaps=swaps)

    chaotic = run()
    assert chaotic.index_versions == tuple(g.version for g in generations)
    assert_no_mixed_generation(chaotic, requests, generations)
    kinds = [e.kind for e in chaotic.reconfig_events]
    assert sorted(kinds) == ["rebalance", "swap", "swap"]
    again = run()
    assert [r.to_wire() for r in chaotic.responses] == [
        r.to_wire() for r in again.responses
    ]


@pytest.mark.chaos
@pytest.mark.parametrize(
    "topology", [(2, 2), (4, 1), (2, 3)], ids=lambda t: f"{t[0]}x{t[1]}"
)
@pytest.mark.parametrize("policy", ["round_robin", "least_outstanding"])
def test_reconfig_chaos_grid(reconfig_run, topology, policy):
    """Tier-2 sweep: rolling drained swaps + a mid-replay rebalance
    stay clean across topologies and policies under the full replica
    fault vocabulary (crash + partition + slow)."""
    _, generations = reconfig_run
    g0 = generations[0]
    requests = swap_workload(g0.index, n=1500, rps=3000.0)
    t1, t2 = swap_instants(requests)
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
        service = ClusterService(
            g0.index, ServerConfig(),
            ClusterConfig(
                n_shards=n_shards, replicas_per_shard=replicas,
                policy=policy,
            ),
            faults=plan,
        )
        swaps = [
            GenerationSwap(
                at_ms=t1, drain=True, index=generations[1].index
            ),
            RebalancePlan(
                at_ms=(t1 + t2) / 2.0,
                moves=cross_shard_moves(service, hot_keys(g0.index, 2)),
            ),
            GenerationSwap(
                at_ms=t2, drain=True, index=generations[2].index
            ),
        ]
        return service.serve(requests, swaps=swaps)

    chaotic = run()
    assert chaotic.index_versions == tuple(g.version for g in generations)
    assert_no_mixed_generation(chaotic, requests, generations)
    again = run()
    assert [r.to_wire() for r in chaotic.responses] == [
        r.to_wire() for r in again.responses
    ]


# -- HRW minimal disruption (hypothesis) ------------------------------------------


key_sets = st.lists(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789.-",
        min_size=1, max_size=16,
    ),
    min_size=1, max_size=24, unique=True,
)
shard_sets = st.lists(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-",
        min_size=1, max_size=8,
    ),
    min_size=1, max_size=6, unique=True,
).map(tuple)


@settings(max_examples=50, deadline=None)
@given(keys=key_sets, shards=shard_sets, extra=st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8,
))
def test_plan_rebalance_on_shard_add_is_hrw_minimal(keys, shards, extra):
    new = shards + (f"new-{extra}",)
    plan = plan_rebalance(keys, shards, new, at_ms=10.0)
    moved = dict(plan.moves)
    for key in keys:
        before = rendezvous_owner(key, shards)
        after = rendezvous_owner(key, new)
        if before == after:
            # Minimal disruption: an unmoved key is not in the plan.
            assert key not in moved
        else:
            # Every move lands on the added shard (only it can win
            # new scores), at the key's true new owner.
            assert moved[key] == after == new[-1]
    assert plan.kind == "rebalance"
    assert plan.drain  # rebalances default to drained application


@settings(max_examples=50, deadline=None)
@given(keys=key_sets, shards=shard_sets)
def test_plan_rebalance_on_shard_remove_moves_only_its_keys(keys, shards):
    if len(shards) < 2:
        return
    removed, survivors = shards[0], shards[1:]
    plan = plan_rebalance(keys, shards, survivors, at_ms=10.0)
    moved = dict(plan.moves)
    for key in keys:
        before = rendezvous_owner(key, shards)
        if before == removed:
            assert moved[key] == rendezvous_owner(key, survivors)
        else:
            # Keys the removed shard never owned stay exactly put.
            assert key not in moved
            assert rendezvous_owner(key, survivors) == before


# -- event log: failure paths and the end-of-log page -----------------------------


def test_event_log_verify_index_fails_on_corruption():
    from repro.errors import EventLogError
    from repro.wiki.events import EventLog, LinkPostedEvent

    log = EventLog()
    for i in range(4):
        log.append(
            LinkPostedEvent(f"http://u{i % 2}.test/", "A", SimTime(float(i)))
        )
    log.verify_index()
    # A dropped posting: the index disagrees with a full scan.
    dropped = log._by_url["http://u0.test/"].pop()
    with pytest.raises(EventLogError, match="out of sync"):
        log.verify_index()
    log._by_url["http://u0.test/"].append(dropped)
    log.verify_index()  # restored — sanity before the next corruption
    # A phantom URL key fails the same dict comparison.
    log._by_url["http://ghost.test/"] = [1]
    with pytest.raises(EventLogError, match="out of sync"):
        log.verify_index()
    del log._by_url["http://ghost.test/"]
    # Positions out of emission order break the per-URL ordering check
    # even when the key sets agree.
    log._by_url["http://u0.test/"].reverse()
    with pytest.raises(EventLogError, match="out of sync"):
        log.verify_index()


def test_event_log_paging_at_end_of_log():
    from repro.wiki.events import EventLog, LinkPostedEvent

    log = EventLog()
    for i in range(3):
        log.append(LinkPostedEvent(f"http://u{i}.test/", "A", SimTime(float(i))))
    # cursor == end-of-log is valid and returns an empty page that
    # does not advance — a poller at the head can spin safely.
    batch, cursor = log.events_since(len(log))
    assert batch == ()
    assert cursor == len(log) == log.cursor
    batch, cursor = log.events_since(len(log), limit=5)
    assert (batch, cursor) == ((), len(log))
    # One past the end is a caller bug, not an empty page.
    with pytest.raises(ValueError):
        log.events_since(len(log) + 1)
    # The empty log's end is cursor 0.
    empty = EventLog()
    assert empty.events_since(0) == ((), 0)
