"""Tests for repro.service.cluster — sharded, replicated serving.

The contracts pinned here:

- rendezvous (HRW) hashing balances keys over any node set and remaps
  the minimum possible set when nodes join or leave (hypothesis
  property tests);
- routing keys put every studied URL on the shard that holds its
  entry, because both sides derive the registrable domain identically;
- the cluster's answer surface (``Response.to_wire``: status, body,
  index version) and shed set are byte-identical to the recorded
  single-node golden for every tested shard/replica count and router
  policy when faults are off — and a 1×1 cluster reproduces it
  *including timing*;
- replica-level chaos (crash, partition, slow) degrades latency and
  the shed set only — every mutually-served request returns the same
  bytes, the admission (429) set never moves, and runs replay exactly;
- fault decisions are keyed by (replica, key) — never by arrival
  order or attempt count — so the chaos schedule is invariant to the
  router policy under test (the regression this PR exists to pin);
- per-replica metric families fold into the fleet rollup exactly.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultSpec
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.service import (
    AuditLog,
    ClusterConfig,
    ClusterService,
    LinkStatusIndex,
    LinkStatusService,
    ServerConfig,
    ServiceFaultPlan,
    ServiceFaults,
    ShardIndex,
    WorkloadConfig,
    generate_workload,
    rendezvous_owner,
    rendezvous_score,
    routing_key,
)
from repro.service.router import ReplicaPicker, TenantQuotas


@pytest.fixture(scope="session")
def service_index(small_report) -> LinkStatusIndex:
    """The index snapshot of the shared small study (read-only)."""
    return LinkStatusIndex.build(small_report)


def mixed_workload(index, n=2000, rps=2500.0, seed=7, **over):
    return generate_workload(
        [entry.url for entry in index.entries],
        WorkloadConfig(
            n_requests=n,
            offered_rps=rps,
            seed=seed,
            aggregate_fraction=0.05,
            unknown_fraction=0.05,
            **over,
        ),
    )


def wire(result):
    return [r.to_wire() for r in result.responses]


# -- rendezvous hashing ----------------------------------------------------------


node_sets = st.lists(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
    ),
    min_size=1,
    max_size=8,
    unique=True,
).map(tuple)


def test_rendezvous_score_is_pure_and_64_bit():
    assert rendezvous_score("k", "n") == rendezvous_score("k", "n")
    assert 0 <= rendezvous_score("k", "n") < 2**64
    assert rendezvous_score("k", "n") != rendezvous_score("k", "m")


def test_rendezvous_owner_requires_nodes():
    with pytest.raises(ValueError):
        rendezvous_owner("key", ())


@settings(max_examples=50, deadline=None)
@given(key=st.text(min_size=0, max_size=40), nodes=node_sets)
def test_rendezvous_owner_is_a_member_and_deterministic(key, nodes):
    owner = rendezvous_owner(key, nodes)
    assert owner in nodes
    assert rendezvous_owner(key, nodes) == owner
    # Order of the node tuple must not matter.
    assert rendezvous_owner(key, tuple(reversed(nodes))) == owner


@settings(max_examples=25, deadline=None)
@given(nodes=node_sets, extra=st.text(min_size=1, max_size=12))
def test_rendezvous_minimal_disruption_on_node_add(nodes, extra):
    """Adding a node only pulls keys TO the new node; nothing else moves."""
    if extra in nodes:
        extra = extra + "-new"
    grown = nodes + (extra,)
    keys = [f"key-{i}" for i in range(200)]
    for key in keys:
        before = rendezvous_owner(key, nodes)
        after = rendezvous_owner(key, grown)
        assert after in (before, extra)


@settings(max_examples=25, deadline=None)
@given(nodes=node_sets)
def test_rendezvous_minimal_disruption_on_node_remove(nodes):
    """Removing a node only remaps the keys that node owned."""
    if len(nodes) < 2:
        return
    victim = nodes[0]
    shrunk = nodes[1:]
    for i in range(200):
        key = f"key-{i}"
        before = rendezvous_owner(key, nodes)
        after = rendezvous_owner(key, shrunk)
        if before != victim:
            assert after == before
        else:
            assert after in shrunk


def test_rendezvous_balance_within_bound():
    """Each of 4 nodes owns a reasonable share of a large key set.

    The scores are sha256-uniform, so with 4000 keys over 4 nodes the
    expected share is 25%; the bound is generous (15–35%) because this
    pins "no node is starved or doubled", not a tight concentration
    inequality.
    """
    nodes = tuple(f"shard-{i}" for i in range(4))
    counts = {node: 0 for node in nodes}
    for i in range(4000):
        counts[rendezvous_owner(f"https://host{i}.example/p", nodes)] += 1
    for node, count in counts.items():
        assert 0.15 <= count / 4000 <= 0.35, (node, count)


# -- routing keys ----------------------------------------------------------------


def test_routing_key_matches_entry_domain(service_index):
    """Every studied URL routes by exactly its entry's domain field."""
    for entry in service_index.entries:
        assert routing_key("url", entry.url) == entry.domain


def test_routing_key_kinds():
    assert routing_key("domain", "example.com") == "example.com"
    assert routing_key("bucket_counts", "") == "bucket_counts:"
    assert (
        routing_key("quantile", "posting_year:0.5")
        == "quantile:posting_year:0.5"
    )
    # Unparseable URLs still get a stable key (they 404 on any shard).
    assert routing_key("url", "::") == routing_key("url", "::")


# -- shard views -----------------------------------------------------------------


def test_shards_partition_the_index_exactly(service_index):
    svc = ClusterService(
        service_index, cluster=ClusterConfig(n_shards=3, replicas_per_shard=1)
    )
    seen = {}
    for shard_id, shard in svc.shards.items():
        assert isinstance(shard, ShardIndex)
        assert shard.version == service_index.version
        for entry in shard.entries:
            assert entry.url not in seen, "entry assigned to two shards"
            seen[entry.url] = shard_id
            # The shard holding an entry is the one its domain hashes to.
            assert (
                rendezvous_owner(entry.domain, svc.shard_ids) == shard_id
            )
    assert len(seen) == len(service_index)


def test_shard_point_queries_are_partition_local(service_index):
    svc = ClusterService(
        service_index, cluster=ClusterConfig(n_shards=2, replicas_per_shard=1)
    )
    entry = service_index.entries[0]
    owner = svc.shard_for("url", entry.url)
    other = next(s for s in svc.shard_ids if s != owner)
    assert svc.shards[owner].lookup(entry.url) is entry
    assert svc.shards[other].lookup(entry.url) is None
    # Aggregates replicate: every shard answers them identically.
    for shard in svc.shards.values():
        assert shard.bucket_counts() == service_index.bucket_counts()
        assert shard.quantile("posting_year", 0.5) == service_index.quantile(
            "posting_year", 0.5
        )


def test_cluster_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(n_shards=0)
    with pytest.raises(ValueError):
        ClusterConfig(replicas_per_shard=0)
    with pytest.raises(ValueError):
        ClusterConfig(policy="random")
    with pytest.raises(ValueError):
        ClusterConfig(max_dispatch_attempts=0)
    with pytest.raises(ValueError):
        ClusterConfig(congestion_ms_per_inflight=-1.0)


# -- faults-off equivalence with the single-node service -------------------------


#: Counters the recorded single-node golden pins next to the responses.
GOLDEN_COUNTERS = (
    "service.index.lookups",
    "service.batch.coalesced",
    "service.cache.hits",
    "service.cache.misses",
)


def mixed_digest(result, golden) -> dict:
    """What the single-node golden records for one faults-off run."""
    return {
        "responses_sha256": golden.responses_sha(result.responses),
        "wire_sha256": golden.wire_sha(result.responses),
        "shed_ids": list(result.shed_ids),
        "counters": {
            name: result.metrics.counter(name).int_value
            for name in GOLDEN_COUNTERS
        },
    }


@pytest.fixture(scope="module")
def mixed_golden(service_index, serve_golden) -> dict:
    """The recorded single-node run of :func:`mixed_workload`."""
    return serve_golden.section(
        "mixed_workload",
        lambda: mixed_digest(
            LinkStatusService(service_index).serve(
                mixed_workload(service_index)
            ),
            serve_golden,
        ),
    )


def test_cluster_equals_single_node_across_topologies(
    service_index, serve_golden, mixed_golden
):
    """to_wire bytes and the shed set match the recorded single node
    for every N×R tested."""
    workload = mixed_workload(service_index)
    for n_shards in (1, 2, 4):
        for replicas in (1, 2, 3):
            result = ClusterService(
                service_index,
                cluster=ClusterConfig(
                    n_shards=n_shards, replicas_per_shard=replicas
                ),
            ).serve(workload)
            assert (
                serve_golden.wire_sha(result.responses)
                == mixed_golden["wire_sha256"]
            ), (n_shards, replicas)
            assert list(result.shed_ids) == mixed_golden["shed_ids"], (
                n_shards, replicas,
            )


def test_one_by_one_cluster_reproduces_single_node_exactly(
    service_index, serve_golden, mixed_golden
):
    """At N=1, R=1 even the virtual timing and the counters match the
    recorded single node — for the single node itself and per policy."""
    workload = mixed_workload(service_index)
    single = LinkStatusService(service_index).serve(workload)
    assert mixed_digest(single, serve_golden) == mixed_golden
    for policy in ("round_robin", "least_outstanding", "power_of_two"):
        result = ClusterService(
            service_index,
            cluster=ClusterConfig(
                n_shards=1, replicas_per_shard=1, policy=policy
            ),
        ).serve(workload)
        assert mixed_digest(result, serve_golden) == mixed_golden, policy


def test_policies_agree_on_answers(service_index):
    """Replica choice moves latency only, never the answer surface."""
    workload = mixed_workload(service_index)
    cluster = dict(n_shards=2, replicas_per_shard=3)
    runs = {
        policy: ClusterService(
            service_index, cluster=ClusterConfig(policy=policy, **cluster)
        ).serve(workload)
        for policy in ("round_robin", "least_outstanding", "power_of_two")
    }
    wires = {policy: wire(run) for policy, run in runs.items()}
    assert wires["round_robin"] == wires["least_outstanding"]
    assert wires["round_robin"] == wires["power_of_two"]


# -- the fleet registry: pinned, and paid per run --------------------------------


def registry_snapshot(result) -> dict:
    """The run's full registry snapshot as its JSON golden reads back
    (materializing any deferred exemplars first)."""
    return json.loads(json.dumps(result.metrics.snapshot()))


def test_single_node_registry_snapshot_matches_golden(
    service_index, registry_golden
):
    """Every counter, gauge and histogram (bounds, buckets, count,
    float sum) of the single node's mixed run, as recorded."""

    def run():
        return registry_snapshot(
            LinkStatusService(service_index).serve(
                mixed_workload(service_index)
            )
        )

    assert run() == registry_golden.section("single_node_mixed", run)


def test_traced_audited_cluster_registry_snapshot_matches_golden(
    service_index, registry_golden
):
    """A 2×2 fleet under a tracer and an audit log: per-replica
    families, the rollup, and the exemplars the deferred observation
    log backfills, as recorded."""

    def run():
        return registry_snapshot(
            ClusterService(
                service_index,
                cluster=ClusterConfig(n_shards=2, replicas_per_shard=2),
                tracer=Tracer(),
                audit=AuditLog(),
            ).serve(mixed_workload(service_index))
        )

    assert run() == registry_golden.section("cluster_2x2_traced_audited", run)


@pytest.mark.parametrize("shards,replicas", [(1, 1), (2, 2)])
def test_serve_resolves_instruments_per_run(
    service_index, monkeypatch, shards, replicas
):
    """Faults off, a serve looks each instrument up by name a fixed
    number of times per run: doubling the requests adds no lookups."""
    lookups = [0]
    for method in ("counter", "gauge", "histogram"):
        original = getattr(MetricsRegistry, method)

        def counted(self, *args, _original=original, **kwargs):
            lookups[0] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(MetricsRegistry, method, counted)

    def serve_lookups(n: int) -> int:
        service = ClusterService(
            service_index,
            cluster=ClusterConfig(n_shards=shards, replicas_per_shard=replicas),
        )
        before = lookups[0]
        service.serve(mixed_workload(service_index, n=n))
        return lookups[0] - before

    assert serve_lookups(1000) == serve_lookups(2000)


# -- replica-level chaos: degradation is confined --------------------------------


CRASH_PLAN = ServiceFaultPlan(
    seed=5,
    replica_crash=FaultSpec(rate=0.6, permanent=True),
    crash_horizon_ms=600.0,
    crash_duration_ms=150.0,
    catchup_ms=100.0,
    replica_partition=FaultSpec(rate=0.5, permanent=True),
    partition_horizon_ms=600.0,
    partition_duration_ms=120.0,
    replica_slow=FaultSpec(rate=0.4, permanent=True),
)


def assert_chaos_confined(clean, chaotic):
    """Chaos may move latency and add 503s — never answers or 429s."""
    clean_by_id = {r.request_id: r for r in clean.responses}
    for response in chaotic.responses:
        mate = clean_by_id[response.request_id]
        if not response.shed and not mate.shed:
            assert response.to_wire() == mate.to_wire()
    c429 = {r.request_id for r in clean.responses if r.status == 429}
    f429 = {r.request_id for r in chaotic.responses if r.status == 429}
    assert c429 == f429
    extra = set(chaotic.shed_ids) - set(clean.shed_ids)
    assert extra == set(chaotic.unavailable_ids)


def test_replica_crash_chaos_confined_and_replayable(service_index):
    workload = mixed_workload(service_index)
    cluster = ClusterConfig(n_shards=2, replicas_per_shard=2)
    clean = ClusterService(service_index, cluster=cluster).serve(workload)
    chaotic = ClusterService(
        service_index, cluster=cluster, faults=CRASH_PLAN
    ).serve(workload)
    assert chaotic.fault_events, "plan should schedule replica faults"
    assert_chaos_confined(clean, chaotic)
    replay = ClusterService(
        service_index, cluster=cluster, faults=CRASH_PLAN
    ).serve(workload)
    assert chaotic.responses == replay.responses
    assert chaotic.fault_events == replay.fault_events


def test_single_node_applies_replica_faults(service_index):
    """A crash plan on the default 1×1 topology fires instead of being
    silently ignored: the lone replica's outage shows up as fault
    events and moved latencies, with the answers still confined."""
    workload = mixed_workload(service_index)
    plan = ServiceFaultPlan.crashes(
        rate=1.0, seed=5,
        horizon_ms=max(r.arrival_ms for r in workload), duration_ms=40.0,
    )
    clean = LinkStatusService(service_index).serve(workload)
    crashed = LinkStatusService(service_index, faults=plan).serve(workload)
    assert [e.replica_id for e in crashed.fault_events] == ["s0r0", "s0r0"]
    assert crashed.responses != clean.responses
    assert_chaos_confined(clean, crashed)


def test_unrecoverable_shard_sheds_503_deterministically(service_index):
    """With 1 replica/shard, guaranteed crashes, and a tiny dispatch
    budget, some requests give up with a 503 — the same set each run."""
    workload = mixed_workload(service_index, n=1500, rps=2000.0, seed=3)
    plan = ServiceFaultPlan.crashes(
        rate=1.0, seed=9, horizon_ms=400.0, duration_ms=250.0
    )
    cluster = ClusterConfig(
        n_shards=2, replicas_per_shard=1, max_dispatch_attempts=2
    )
    first = ClusterService(service_index, cluster=cluster, faults=plan).serve(
        workload
    )
    assert first.unavailable_ids, "expected some 503 sheds"
    assert set(first.unavailable_ids) <= set(first.shed_ids)
    for rid in first.unavailable_ids:
        assert first.responses[rid].status == 503
    again = ClusterService(service_index, cluster=cluster, faults=plan).serve(
        workload
    )
    assert first.responses == again.responses
    # A generous dispatch budget waits out the crash instead of shedding.
    patient = ClusterService(
        service_index,
        cluster=ClusterConfig(
            n_shards=2, replicas_per_shard=1, max_dispatch_attempts=8
        ),
        faults=plan,
    ).serve(workload)
    assert not patient.unavailable_ids


def test_slow_replica_moves_latency_not_answers(service_index):
    workload = mixed_workload(service_index)
    cluster = ClusterConfig(n_shards=1, replicas_per_shard=2)
    clean = ClusterService(service_index, cluster=cluster).serve(workload)
    slowed = ClusterService(
        service_index,
        cluster=cluster,
        faults=ServiceFaultPlan.slow_replicas(rate=1.0, seed=2, factor=4.0),
    ).serve(workload)
    assert wire(slowed) == wire(clean)
    assert slowed.shed_ids == clean.shed_ids
    assert slowed.latency_quantile(0.99) > clean.latency_quantile(0.99)


# -- fault decisions are router-policy invariant (the regression) ----------------


def test_fault_schedule_is_invariant_to_router_policy(service_index):
    """The chaos a fleet experiences must not depend on the policy
    under test: same plan + same replicas ⇒ same transition schedule,
    and the served answers agree across policies under chaos too."""
    workload = mixed_workload(service_index)
    runs = {}
    for policy in ("round_robin", "least_outstanding", "power_of_two"):
        runs[policy] = ClusterService(
            service_index,
            cluster=ClusterConfig(
                n_shards=2, replicas_per_shard=2, policy=policy
            ),
            faults=CRASH_PLAN,
        ).serve(workload)
    schedules = {p: r.fault_events for p, r in runs.items()}
    assert schedules["round_robin"] == schedules["least_outstanding"]
    assert schedules["round_robin"] == schedules["power_of_two"]
    base = runs["round_robin"]
    base_by_id = {r.request_id: r for r in base.responses}
    for run in runs.values():
        for response in run.responses:
            mate = base_by_id[response.request_id]
            if not response.shed and not mate.shed:
                assert response.to_wire() == mate.to_wire()


def test_fault_decisions_are_pure_not_attempt_counted():
    """Asking the same question twice returns the same answer.

    The stateful FaultChannel implementation keyed decisions by an
    attempt counter, so a transient (non-permanent) spec faulted the
    first ``depth`` calls and then cleared — meaning *which* calls saw
    the fault depended on how many earlier calls the router's policy
    happened to send that way. The service layer now ignores attempt
    counts entirely: a (replica, key) pair is faulted or it is not.
    """
    plan = ServiceFaultPlan(
        seed=11,
        index_spike=FaultSpec(rate=1.0, max_repeats=2, permanent=False),
        cache_fault=FaultSpec(rate=1.0, max_repeats=2, permanent=False),
    )
    faults = ServiceFaults(plan)
    for key in ("url:http://a.example/", "url:http://b.example/"):
        first = [faults.spike_ms(key), faults.cache_lost(key)]
        for _ in range(5):
            assert [faults.spike_ms(key), faults.cache_lost(key)] == first


def test_key_fault_sets_match_legacy_channel_selection():
    """The pure decisions select exactly the keys the stateful
    FaultChannel selected under the same seed — the rewrite changed
    the mechanism, not the chaos a pinned plan produces."""
    from repro.faults.inject import FaultChannel

    spec = FaultSpec(rate=0.5, permanent=True)
    plan = ServiceFaultPlan(seed=3, cache_fault=spec, index_spike=spec)
    faults = ServiceFaults(plan)
    legacy_cache = FaultChannel(3, "service.cache", spec)
    legacy_spike = FaultChannel(3, "service.index_spike", spec)
    for i in range(300):
        key = f"url:http://host{i}.example/page"
        assert faults.cache_lost(key) == (legacy_cache.depth(key) > 0)
        assert (faults.spike_ms(key) > 0) == (legacy_spike.depth(key) > 0)


def test_replica_windows_are_pure_and_consistent():
    faults = ServiceFaults(
        ServiceFaultPlan.crashes(rate=1.0, seed=4, horizon_ms=1000.0,
                                 duration_ms=200.0)
    )
    window = faults.crash_window("s0r0")
    assert window is not None
    start, end = window
    assert 0.0 <= start < 1000.0 and end == start + 200.0
    assert faults.crash_window("s0r0") == window
    assert not faults.available("s0r0", start)
    assert faults.available("s0r0", end)
    assert faults.next_available_at("s0r0", start) == end
    assert faults.next_failure_at("s0r0", start - 1.0) == start
    assert faults.catchup_factor("s0r0", end) == faults.plan.catchup_factor
    assert faults.catchup_factor("s0r0", end + faults.plan.catchup_ms) == 1.0
    events = faults.transitions(("s0r0",))
    assert [e.kind for e in events] == ["crash", "recover"]


# -- router policies and quotas --------------------------------------------------


def test_round_robin_rotates_per_shard():
    picker = ReplicaPicker("round_robin")
    picks = [picker.pick("shard-0", 3, [0, 0, 0], i) for i in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]
    # A different shard rotates independently.
    assert picker.pick("shard-1", 3, [0, 0, 0], 0) == 0


def test_least_outstanding_prefers_idle_replica():
    picker = ReplicaPicker("least_outstanding")
    assert picker.pick("s", 3, [4, 1, 4], 0) == 1
    # Ties break to the lowest index, deterministically.
    assert picker.pick("s", 3, [2, 2, 2], 1) == 0


def test_power_of_two_is_seed_deterministic():
    first = ReplicaPicker("power_of_two", seed=9)
    second = ReplicaPicker("power_of_two", seed=9)
    picks_a = [first.pick("s", 4, [3, 0, 2, 1], i) for i in range(40)]
    picks_b = [second.pick("s", 4, [3, 0, 2, 1], i) for i in range(40)]
    assert picks_a == picks_b
    # A redispatch (attempt bump) may redraw its candidates.
    assert first.pick("s", 4, [0, 0, 0, 0], 7, attempt=0) == first.pick(
        "s", 4, [0, 0, 0, 0], 7, attempt=0
    )


def test_tenant_quotas_throttle_only_metered_tenants(service_index):
    workload = mixed_workload(
        service_index, n=1500, rps=1500.0, seed=3, tenants=("free", "paid")
    )
    result = ClusterService(
        service_index,
        cluster=ClusterConfig(
            n_shards=2, replicas_per_shard=2, quotas={"free": (200.0, 4.0)}
        ),
    ).serve(workload)
    quota_shed = set(result.quota_shed_ids)
    assert quota_shed, "the free tier should exceed its quota"
    tenant_of = {r.request_id: r.tenant for r in workload}
    assert {tenant_of[rid] for rid in quota_shed} == {"free"}
    quotas = TenantQuotas({"vip": (10.0, 2.0)})
    assert quotas.admit("anonymous", 0.0)  # unmetered passes untouched
    assert quotas.admit("vip", 0.0)


# -- metrics fold ----------------------------------------------------------------


def test_replica_metric_families_sum_to_rollup(service_index):
    result = ClusterService(
        service_index,
        cluster=ClusterConfig(n_shards=2, replicas_per_shard=2),
    ).serve(mixed_workload(service_index))
    for name in (
        "service.index.lookups",
        "service.requests.ok",
        "service.cache.hits",
        "service.batch.flushes",
    ):
        rollup = result.metrics.counter(name).value
        family_sum = sum(
            result.metrics.counter(
                f"service.replica.{rid}.{name}"
            ).value
            for rid in result.replica_ids
        )
        assert rollup == family_sum, name
    digest = result.replica_digest()
    assert set(digest) == set(result.replica_ids)
    assert sum(
        fam.get("service.index.lookups", 0) for fam in digest.values()
    ) == result.metrics.counter("service.index.lookups").value


# -- heavier chaos sweeps (tier-2) -----------------------------------------------


@pytest.mark.chaos
def test_chaos_grid_confinement_across_policies_and_topologies(service_index):
    """The full chaos matrix: every policy × topology under the
    combined crash/partition/slow plan stays confined and replayable."""
    workload = mixed_workload(service_index, n=4000, rps=3000.0)
    for n_shards, replicas in ((1, 2), (2, 2), (4, 3)):
        cluster = ClusterConfig(n_shards=n_shards, replicas_per_shard=replicas)
        clean = ClusterService(service_index, cluster=cluster).serve(workload)
        for policy in ("round_robin", "least_outstanding", "power_of_two"):
            config = ClusterConfig(
                n_shards=n_shards, replicas_per_shard=replicas, policy=policy
            )
            chaotic = ClusterService(
                service_index, cluster=config, faults=CRASH_PLAN
            ).serve(workload)
            assert_chaos_confined(clean, chaotic)
            replay = ClusterService(
                service_index, cluster=config, faults=CRASH_PLAN
            ).serve(workload)
            assert chaotic.responses == replay.responses
