"""The serving engine: N shards × R replicas on one event loop.

:class:`ClusterService` turns a :class:`~repro.service.index.
LinkStatusIndex` into a simulated fleet. The index is partitioned
**by registrable domain** with rendezvous hashing
(:mod:`repro.service.router`) into ``n_shards`` partitions; each shard
runs ``replicas_per_shard`` replicas, and every replica is a full
serving stack of its own — micro-batcher, LRU+TTL result cache,
per-replica metrics registry — reading an immutable
:class:`ShardIndex` view of its partition. The single node,
:class:`LinkStatusService`, is this engine pinned to one shard × one
replica: there is exactly one event loop.

The whole fleet runs on one discrete-event loop over the service's
virtual millisecond clock, which is what makes replica-level chaos
*exactly* reproducible: admission releases, batch deadlines, replica
crash/recovery transitions, and re-dispatches of in-flight requests
all interleave at computed instants under a fixed tie-break order
(fault transitions, then batch deadlines in replica order, then
reconfigurations, then re-dispatches, then admission releases).

The contract the differential tests pin:

- **Faults off** — the answer surface
  (:meth:`~repro.service.server.Response.to_wire`: status, body,
  index version, per request) and the shed set are byte-identical for
  *any* shard/replica count and router policy, and at one shard × one
  replica every full response (timing included) matches the recorded
  single-node golden.
- **Faults on** — replica crashes, partitions, and slow replicas
  degrade latency and shed rate only: every request both runs serve
  gets the same bytes, and fault runs never invent answers — they
  only re-dispatch (latency) or give up after
  ``max_dispatch_attempts`` (a 503 in the shed set).

Admission is global (one token bucket + bounded queue at the front
door), with optional per-tenant quota buckets in front of it.
Per-replica accounting folds into the fleet registry twice: once raw
(the fleet rollup) and once under ``service.replica.<rid>.`` (the
per-replica families), so the rollup is exactly the sum of the
families.
"""

from __future__ import annotations

import heapq
from contextlib import nullcontext
from dataclasses import dataclass

from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from .admission import AdmissionController, TokenBucket
from .audit import AuditLog
from .batcher import Batch, MicroBatcher
from .cache import ResultCache
from .faults import ServiceFaultPlan, ServiceFaults
from .index import LinkStatusEntry, LinkStatusIndex, group_by
from .reconfig import (
    RECONFIG_LAG_BOUNDS_MS,
    DeltaApply,
    GenerationSwap,
    RebalancePlan,
    ReconfigError,
    ReconfigEvent,
    Reconfiguration,
    apply_delta,
    normalize_schedule,
)
from .router import POLICIES, ReplicaPicker, TenantQuotas, rendezvous_owner, routing_key
from .server import (
    LATENCY_BOUNDS_MS,
    Response,
    ServerConfig,
    ServiceResult,
    answer,
    key_latency_ms,
)
from .workload import Request

__all__ = [
    "ClusterConfig",
    "ClusterService",
    "LinkStatusService",
    "ShardIndex",
]


class ShardIndex:
    """One shard's immutable view of the parent snapshot.

    Point queries (URL, domain) answer from the partition only; the
    aggregate endpoints delegate to the parent's precomputed tables —
    the simulated analogue of shipping every shard the (tiny) offline
    aggregates next to its (large) partition. The shard serves under
    the **parent's** version string: answers are logically answers of
    the whole snapshot, and per-key virtual latency hashes stay
    identical to the single-node service's.
    """

    __slots__ = ("shard_id", "_parent", "_by_url", "_by_domain", "_entries")

    def __init__(
        self,
        parent: LinkStatusIndex,
        shard_id: str,
        entries: tuple[LinkStatusEntry, ...],
    ) -> None:
        self.shard_id = shard_id
        self._parent = parent
        self._entries = entries
        by_url: dict[str, LinkStatusEntry] = {}
        for entry in entries:
            by_url.setdefault(entry.url, entry)
        self._by_url = by_url
        self._by_domain = group_by(entries, "domain")

    @property
    def version(self) -> str:
        return self._parent.version

    @property
    def entries(self) -> tuple[LinkStatusEntry, ...]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, url: str) -> LinkStatusEntry | None:
        return self._by_url.get(url)

    def by_domain(self, domain: str) -> tuple[LinkStatusEntry, ...]:
        return self._by_domain.get(domain, ())

    def bucket_counts(self) -> dict[str, int]:
        return self._parent.bucket_counts()

    def metrics(self) -> tuple[str, ...]:
        return self._parent.metrics()

    def distribution(self, metric: str):
        return self._parent.distribution(metric)

    def quantile(self, metric: str, q: float) -> float:
        return self._parent.quantile(metric, q)

    def __repr__(self) -> str:
        return (
            f"ShardIndex({self.shard_id}, {len(self._entries)} entries, "
            f"version={self.version})"
        )


@dataclass(frozen=True)
class ClusterConfig:
    """Fleet topology and routing policy."""

    #: Domain partitions (rendezvous-hashed).
    n_shards: int = 2
    #: Serving replicas per shard.
    replicas_per_shard: int = 2
    #: Replica-selection policy (see :data:`repro.service.router.POLICIES`).
    policy: str = "round_robin"
    #: Seed for the power-of-two candidate draws.
    router_seed: int = 0
    #: Dispatch attempts per request before it sheds with a 503.
    max_dispatch_attempts: int = 4
    #: Extra virtual ms an index lookup pays per request already
    #: outstanding on its replica at flush — the load signal that makes
    #: replica scaling visible in p99. 0 (the default) preserves exact
    #: faults-off latency equivalence with the single-node service.
    congestion_ms_per_inflight: float = 0.0
    #: Per-tenant admission quotas: tenant -> (rate_rps, burst).
    quotas: dict[str, tuple[float, float]] | None = None

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.replicas_per_shard < 1:
            raise ValueError("replicas_per_shard must be >= 1")
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown router policy {self.policy!r}; known: {POLICIES}"
            )
        if self.max_dispatch_attempts < 1:
            raise ValueError("max_dispatch_attempts must be >= 1")
        if self.congestion_ms_per_inflight < 0:
            raise ValueError("congestion_ms_per_inflight must be >= 0")


class _Replica:
    """One replica's private serving state (internal to the cluster)."""

    __slots__ = (
        "replica_id",
        "shard_id",
        "index",
        "config",
        "metrics",
        "batcher",
        "cache",
        "_completions",
    )

    def __init__(
        self,
        replica_id: str,
        shard_id: str,
        index: ShardIndex,
        config: ServerConfig,
    ) -> None:
        self.replica_id = replica_id
        self.shard_id = shard_id
        self.index = index
        self.config = config
        self.metrics = MetricsRegistry()
        self.batcher = MicroBatcher(
            max_batch=config.max_batch,
            max_wait_ms=config.max_wait_ms,
            metrics=self.metrics,
        )
        self.wipe_cache()
        self._completions: list[float] = []

    def outstanding(self, now_ms: float) -> int:
        """Dispatched-but-incomplete requests at ``now_ms``."""
        heap = self._completions
        while heap and heap[0] <= now_ms:
            heapq.heappop(heap)
        return self.batcher.pending + len(heap)

    def note_completion(self, completion_ms: float, riders: int) -> None:
        for _ in range(riders):
            heapq.heappush(self._completions, completion_ms)

    def wipe_cache(self) -> None:
        """Start a cold cache (at boot, after a crash, on a new
        generation)."""
        self.cache = ResultCache(
            capacity=self.config.cache_capacity,
            ttl_ms=self.config.cache_ttl_ms,
            metrics=self.metrics,
        )

    def rebind_metrics(self) -> None:
        """Swap in a fresh registry after a fold (once per serve)."""
        self.metrics = MetricsRegistry()
        self.batcher.metrics = self.metrics
        self.cache.rebind_metrics(self.metrics)


#: Event-type priorities for same-instant ties in the cluster loop.
#: Generation swaps rank after batch deadlines (a batch due at the
#: swap instant still belongs to the old generation) and before
#: re-dispatches and releases (requests placed at the swap instant are
#: served by the new one).
(
    _P_TRANSITION,
    _P_DEADLINE,
    _P_SWAP,
    _P_REDISPATCH,
    _P_RELEASE,
) = (0, 1, 2, 3, 4)


class ClusterService:
    """A simulated fleet serving one immutable index snapshot."""

    def __init__(
        self,
        index: LinkStatusIndex,
        config: ServerConfig = ServerConfig(),
        cluster: ClusterConfig = ClusterConfig(),
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        faults: ServiceFaultPlan | None = None,
        audit: AuditLog | None = None,
    ) -> None:
        self.index = index
        self.config = config
        self.cluster = cluster
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self.audit = audit
        self._faults = (
            ServiceFaults(faults)
            if faults is not None and faults.active
            else None
        )
        self._picker = ReplicaPicker(cluster.policy, seed=cluster.router_seed)
        #: Outstanding load is bookkeeping only its readers pay for:
        #: the load-aware policies and the congestion model.
        self._track_load = (
            cluster.policy in ("least_outstanding", "power_of_two")
            or cluster.congestion_ms_per_inflight > 0
        )
        self._quotas = (
            TenantQuotas(dict(cluster.quotas)) if cluster.quotas else None
        )
        self.admission = AdmissionController(
            TokenBucket(rate_per_s=config.rate_rps, burst=float(config.burst)),
            queue_limit=config.queue_limit,
            metrics=self.metrics,
        )

        # -- partition the index ---------------------------------------------------
        self.shard_ids = tuple(
            f"shard-{i}" for i in range(cluster.n_shards)
        )
        self._shard_of: dict[str, str] = {}
        #: ``(kind, target) -> routing key`` memo; ``routing_key`` is
        #: pure, and placement stays with ``_shard_of``, so the memo
        #: survives swaps and rebalances.
        self._routing_keys: dict[tuple[str, str], str] = {}
        self.shards: dict[str, ShardIndex] = self._partition(index)

        # -- spin up the replicas --------------------------------------------------
        self.replicas: dict[str, list[_Replica]] = {}
        for si, shard_id in enumerate(self.shard_ids):
            self.replicas[shard_id] = [
                _Replica(
                    f"s{si}r{ri}", shard_id, self.shards[shard_id], config
                )
                for ri in range(cluster.replicas_per_shard)
            ]
        self._all_replicas: tuple[_Replica, ...] = tuple(
            replica
            for shard_id in self.shard_ids
            for replica in self.replicas[shard_id]
        )
        self.metrics.gauge("service.cluster.shards").set(cluster.n_shards)
        self.metrics.gauge("service.cluster.replicas").set(
            len(self._all_replicas)
        )

        # -- replica fault schedule ------------------------------------------------
        replica_ids = tuple(r.replica_id for r in self._all_replicas)
        self._replica_by_id = {
            r.replica_id: r for r in self._all_replicas
        }
        self.fault_events = (
            self._faults.transitions(replica_ids) if self._faults else ()
        )
        self._pending_reconfigs: list[Reconfiguration] = []
        #: In-progress drained reconfiguration: which replicas still
        #: serve the old binding, what each rebinds to, and the
        #: accounting for the eventual ReconfigEvent.
        self._drain_state: dict | None = None
        self._reconfig_log: list[ReconfigEvent] = []
        self._versions_served: list[str] = [index.version]

    def _partition(self, index: LinkStatusIndex) -> dict[str, ShardIndex]:
        """Partition ``index`` by domain into per-shard views.

        Shares the memoized domain→shard table across generations:
        rendezvous placement depends only on the domain and the shard
        id set, so a domain present in two generations lives on the
        same shard in both — a swap re-snapshots shard *contents*
        without migrating ownership. Only a
        :class:`~repro.service.reconfig.RebalancePlan` rewrites the
        memo and moves keys between shards.
        """
        partitions: dict[str, list[LinkStatusEntry]] = {
            shard_id: [] for shard_id in self.shard_ids
        }
        for entry in index.entries:
            partitions[self._owner(entry.domain)].append(entry)
        return {
            shard_id: ShardIndex(index, shard_id, tuple(entries))
            for shard_id, entries in partitions.items()
        }

    # -- routing -----------------------------------------------------------------

    def shard_for(self, kind: str, target: str) -> str:
        """The shard that owns one query (memoized rendezvous hash)."""
        if len(self.shard_ids) == 1:
            return self.shard_ids[0]
        key = self._routing_keys.get((kind, target))
        if key is None:
            key = self._routing_keys[(kind, target)] = routing_key(
                kind, target
            )
        return self._owner(key)

    def _owner(self, key: str) -> str:
        """The shard owning routing ``key``: its rebalanced placement,
        else its rendezvous owner (memoized)."""
        shard_id = self._shard_of.get(key)
        if shard_id is None:
            shard_id = self._shard_of[key] = rendezvous_owner(
                key, self.shard_ids
            )
        return shard_id

    # -- the serve loop ----------------------------------------------------------

    def serve(
        self,
        requests,
        mode: str = "serial",
        swaps=None,
    ) -> ServiceResult:
        """Replay a workload against the fleet; return every response.

        Responses come back in request-id order. ``mode`` must be
        ``"serial"`` (the only execution mode; the parameter stays
        for callers that name it).

        ``swaps`` — optional reconfiguration schedule of
        :class:`~repro.service.reconfig.Reconfiguration` instances
        (``GenerationSwap``, ``DeltaApply``, ``RebalancePlan``),
        validated up front by
        :func:`~repro.service.reconfig.normalize_schedule`. Atomic
        swaps force-flush every replica's open batch against its *old*
        shard view (in-flight requests finish on the generation they
        were admitted under), wipe every cache, and re-partition the
        new index into fresh shard views before the fleet answers from
        the new generation. Drained swaps move the front door at the
        scheduled instant but let each replica finish its queued batch
        under the old binding before rebinding — a per-replica rolling
        cutover. Rebalances migrate routing keys between shards within
        one generation via the same drain machinery (so they need at
        least two shards). No response ever mixes generations — the
        chaos differential tests assert this under replica crash
        schedules.
        """
        if mode != "serial":
            raise ValueError(f"unknown serve mode {mode!r}")
        self._pending_reconfigs = normalize_schedule(
            swaps, self.index, shard_ids=self.shard_ids
        )
        self._drain_state = None
        self._reconfig_log = []
        self._versions_served = [self.index.version]
        responses: list[Response] = []
        #: re-dispatch queue: (at_ms, seq, attempt, request)
        self._redispatch: list[tuple[float, int, int, Request]] = []
        self._redispatch_seq = 0
        self._pending_transitions = list(self.fault_events)
        #: audit-only attribution state: request id -> fault blame
        #: trail ("replica:channel" per forced re-dispatch) and
        #: re-dispatch counts. Only touched on the (fault-only)
        #: re-queue path, never per dispatch: a request's dispatch-
        #: attempt total is exactly 1 + its re-queue count, because
        #: every queued re-dispatch is popped into one ``_dispatch``
        #: call and the first dispatch comes from admission.
        self._blame: dict[int, list[str]] = {}
        self._requeues: dict[int, int] = {}
        #: Placements on a replica; published as
        #: ``service.cluster.dispatches`` when the run folds.
        self._dispatched = 0
        #: Compact observation log: one tuple per coalesced group or
        #: shed. Spans, exemplars, and audit records all expand from
        #: it in :meth:`_materialize_observations` on first telemetry
        #: read — the serving loop itself only pays list appends.
        #: ``None`` when neither tracing nor auditing is on, so the
        #: unobserved loop stays byte-identical and cost-identical.
        self._obs_log: list[tuple] | None = (
            [] if (self.tracer is not None or self.audit is not None) else None
        )
        ordered = sorted(requests, key=lambda r: (r.arrival_ms, r.request_id))
        service_cm = (
            self.tracer.span(
                "service",
                kind="service",
                index_version=self.index.version,
                mode=mode,
                offered=len(ordered),
                shards=self.cluster.n_shards,
                replicas=self.cluster.replicas_per_shard,
                policy=self.cluster.policy,
            )
            if self.tracer is not None
            else nullcontext()
        )
        with service_cm as service_span:
            for request in ordered:
                self._advance(request.arrival_ms, responses)
                if self._quotas is not None and not self._quotas.admit(
                    request.tenant, request.arrival_ms
                ):
                    self._shed(request, responses, status=429, source="quota")
                    self.metrics.counter("service.cluster.quota_shed").inc()
                    continue
                verdict = self.admission.offer(request, request.arrival_ms)
                if verdict == "admit":
                    self._dispatch(request, request.arrival_ms, responses)
                elif verdict == "shed":
                    self._shed(request, responses, status=429, source="shed")
            self._advance(None, responses)
        service_span_id = service_span.span_id if service_span else None
        responses.sort(key=lambda r: r.request_id)
        self._fold_replica_metrics()
        if self._obs_log is not None:
            # Hand the run's observation log to whichever telemetry
            # surface is read first: the tracer's spans, the audit
            # log's records, and the registry's snapshot all trigger
            # the same once-only expansion. Captured by value so a
            # later serve() on this instance cannot disturb it; the
            # expanded spans parent under this run's (by then closed)
            # ``service`` span.
            log, self._obs_log = self._obs_log, None
            blame, requeues = self._blame, self._requeues
            expanded = False

            def materialize() -> None:
                nonlocal expanded
                if expanded:
                    return
                expanded = True
                self._materialize_observations(
                    log, blame, requeues, service_span_id
                )

            if self.tracer is not None:
                self.tracer.add_pending_source(materialize)
            if self.audit is not None:
                self.audit.add_pending_source(materialize)
            self.metrics.add_pending_source(materialize)
        return ServiceResult(
            responses=responses,
            metrics=self.metrics,
            index_version=self.index.version,
            mode=mode,
            index_versions=tuple(self._versions_served),
            n_shards=self.cluster.n_shards,
            replicas_per_shard=self.cluster.replicas_per_shard,
            policy=self.cluster.policy,
            fault_events=self.fault_events,
            replica_ids=tuple(r.replica_id for r in self._all_replicas),
            reconfig_events=tuple(self._reconfig_log),
        )

    def _fold_replica_metrics(self) -> None:
        """Publish per-replica families plus the exact fleet rollup."""
        self.metrics.counter("service.cluster.dispatches").inc(self._dispatched)
        for replica in self._all_replicas:
            self.metrics.merge(replica.metrics)
            self.metrics.merge_prefixed(
                replica.metrics, f"service.replica.{replica.replica_id}."
            )
            replica.rebind_metrics()  # each registry folds exactly once

    # -- the event loop ----------------------------------------------------------

    def _next_event(self) -> tuple[float, int, int] | None:
        """The earliest due event as ``(time, priority, index)``.

        ``index`` identifies the event within its type: the replica's
        position for deadlines, zero otherwise. The fixed priority
        order — transitions, deadlines (in replica order),
        reconfigurations, re-dispatches, releases — resolves
        same-instant ties deterministically (a closing batch beats a
        token release). Candidates are scanned in that order, so a
        later one wins only when it is strictly earlier.
        """
        best_ms: float | None = None
        priority = position = 0
        if self._pending_transitions:
            best_ms = self._pending_transitions[0].at_ms
        for i, replica in enumerate(self._all_replicas):
            deadline = replica.batcher.deadline_ms
            if deadline is not None and (best_ms is None or deadline < best_ms):
                best_ms, priority, position = deadline, _P_DEADLINE, i
        if self._pending_reconfigs:
            at_ms = self._pending_reconfigs[0].at_ms
            if best_ms is None or at_ms < best_ms:
                best_ms, priority, position = at_ms, _P_SWAP, 0
        if self._redispatch:
            at_ms = self._redispatch[0][0]
            if best_ms is None or at_ms < best_ms:
                best_ms, priority, position = at_ms, _P_REDISPATCH, 0
        release = self.admission.next_release_ms()
        if release is not None and (best_ms is None or release < best_ms):
            best_ms, priority, position = release, _P_RELEASE, 0
        return None if best_ms is None else (best_ms, priority, position)

    def _advance(
        self, now_ms: float | None, responses: list[Response]
    ) -> None:
        """Run every due event in (time, priority) order up to
        ``now_ms`` (``None`` = run them all)."""
        while True:
            event = self._next_event()
            if event is None:
                return
            at_ms, priority, position = event
            if now_ms is not None and at_ms > now_ms:
                return
            if priority == _P_TRANSITION:
                self._apply_transition(responses)
            elif priority == _P_DEADLINE:
                replica = self._all_replicas[position]
                batch = replica.batcher.flush_due(at_ms)
                if batch is not None:
                    self._execute(replica, batch, responses)
            elif priority == _P_SWAP:
                op = self._pending_reconfigs.pop(0)
                self._begin_reconfig(op, responses)
            elif priority == _P_REDISPATCH:
                at, _, attempt, request = heapq.heappop(self._redispatch)
                self._dispatch(request, at, responses, attempt=attempt)
            else:
                request, ready_ms = self.admission.release_one()
                self._dispatch(request, ready_ms, responses)

    def _apply_transition(self, responses: list[Response]) -> None:
        """One replica state change: crash/partition onsets drain the
        replica's open batch back to the router; crashes also cold the
        cache. Recovery instants need no action — availability is a
        pure function of time."""
        event = self._pending_transitions.pop(0)
        self.metrics.counter(
            f"service.cluster.transitions.{event.kind}"
        ).inc()
        if event.kind not in ("crash", "partition"):
            return
        replica = self._replica_by_id[event.replica_id]
        if event.kind == "crash":
            replica.wipe_cache()
        cause = f"{event.replica_id}:{event.kind}"
        for item in replica.batcher.drain():
            self._requeue(item.request, event.at_ms, causes=(cause,))
        if self._drain_state is not None:
            # The batch this replica was draining a reconfiguration
            # behind just went back to the router — nothing holds the
            # old binding any more, so the cutover lands here.
            self._finish_replica_drain(replica, event.at_ms)

    def _begin_reconfig(
        self, op: Reconfiguration, responses: list[Response]
    ) -> None:
        """Apply one scheduled reconfiguration at ``op.at_ms``.

        A reconfiguration that lands while an earlier drain is still
        in flight preempts it: every still-draining replica
        force-flushes under its old binding and rebinds first, so at
        most one drain is ever outstanding and bindings apply in
        schedule order.
        """
        if self._drain_state is not None:
            self._force_finish_drain(op.at_ms, responses)
        if isinstance(op, RebalancePlan):
            self._apply_rebalance(op, responses)
            return
        old_version = self.index.version
        new_index = (
            op.index
            if isinstance(op, GenerationSwap)
            else apply_delta(self.index, op.delta)
        )
        if not op.drain:
            # Atomic fleet-wide cutover (the pre-existing swap
            # semantics): every live replica's open batch
            # force-flushes against its old shard view — groups lost
            # to an in-flight failure re-dispatch as usual and will
            # be answered by the new generation; they never produced
            # old-generation bytes — every cache is wiped, and the
            # new index is re-partitioned into fresh shard views
            # bound to the same replicas.
            for replica in self._all_replicas:
                batch = replica.batcher.flush_now(op.at_ms)
                if batch is not None:
                    self._execute(replica, batch, responses)
            self._install_generation(new_index)
            for replica in self._all_replicas:
                replica.index = self.shards[replica.shard_id]
                replica.wipe_cache()
            self._record_reconfig(op, old_version, new_index.version,
                                  op.at_ms, drained=0)
            return
        # Rolling drained cutover: the front door (routing, shed
        # labels, new dispatches' target generation) moves now, but a
        # replica with an open batch finishes it under the old
        # binding at the batch's own flush instant — bounded by the
        # batcher's max_wait_ms — and only then rebinds. Replicas cut
        # over one by one; every response derives from (and is
        # labeled with) its replica's actual binding, so none mixes
        # generations.
        self._install_generation(new_index)
        binds: dict[str, tuple[ShardIndex, bool]] = {}
        for replica in self._all_replicas:
            view = self.shards[replica.shard_id]
            if replica.batcher.deadline_ms is not None:
                binds[replica.replica_id] = (view, True)
            else:
                replica.index = view
                replica.wipe_cache()
        self._start_drain(op, binds, old_version, new_index.version)

    def _start_drain(
        self,
        op: Reconfiguration,
        binds: dict[str, tuple[ShardIndex, bool]],
        from_version: str,
        to_version: str,
        moved: int = 0,
    ) -> None:
        """Hold ``op`` open until every replica in ``binds`` (replica
        id -> (new view, wipe cache?)) has drained its queued batch;
        with none to wait for, it applies at its scheduled instant."""
        if not binds:
            self._record_reconfig(op, from_version, to_version, op.at_ms,
                                  drained=0, moved_keys=moved)
            return
        self._drain_state = {
            "op": op,
            "binds": binds,
            "pending": set(binds),
            "last_ms": op.at_ms,
            "drained": 0,
            "from": from_version,
            "to": to_version,
            "moved": moved,
        }

    def _install_generation(self, new_index: LinkStatusIndex) -> None:
        """Move the front door to ``new_index`` (no replica rebinds)."""
        self.index = new_index
        self.shards = self._partition(new_index)
        self._versions_served.append(new_index.version)
        self.metrics.counter("service.swaps").inc()

    def _apply_rebalance(
        self, op: RebalancePlan, responses: list[Response]
    ) -> None:
        """Migrate ``op.moves`` routing keys between shards, live.

        The generation does not change — only ownership does — which
        is what makes a correct rolling cutover possible at all:

        - routing flips at ``op.at_ms``, so new requests for a moved
          key dispatch to its *gaining* shard;
        - a shard that only **gains** keys rebinds instantly, open
          batch and all: its new view is a superset of the old one
          under the same generation, so every queued answer is
          unchanged and moved-key requests find their entries;
        - a shard that **loses** keys must keep its old view until
          its open batch closes (the batch may hold moved-key
          requests that still need the departing entries), so it
          rebinds through the drain machinery — or force-flushes,
          when ``op.drain`` is off or when the shard *also* gains
          keys (its stale view would 404 freshly routed arrivals);
        - caches are never wiped: a cached body is a pure function of
          (generation, key), and the generation is unchanged.
        """
        version = self.index.version
        losers: set[str] = set()
        gainers: set[str] = set()
        for key, target in op.moves:
            source = self._owner(key)
            if source != target:
                losers.add(source)
                gainers.add(target)
            self._shard_of[key] = target
        self.shards = self._partition(self.index)
        drainable = losers - gainers
        binds: dict[str, tuple[ShardIndex, bool]] = {}
        for replica in self._all_replicas:
            view = self.shards[replica.shard_id]
            in_losers = replica.shard_id in losers
            must_flush = in_losers and (
                not op.drain or replica.shard_id not in drainable
            )
            if must_flush:
                batch = replica.batcher.flush_now(op.at_ms)
                if batch is not None:
                    self._execute(replica, batch, responses)
                replica.index = view
            elif (
                in_losers
                and replica.batcher.deadline_ms is not None
            ):
                binds[replica.replica_id] = (view, False)
            else:
                replica.index = view
        moved = len(op.moves)
        self.metrics.counter(
            "service.cluster.rebalanced_keys"
        ).inc(moved)
        self._start_drain(op, binds, version, version, moved)

    def _finish_replica_drain(
        self, replica: "_Replica", at_ms: float
    ) -> None:
        """Cut one draining replica over to its pending binding.

        Called when the replica's queued batch closes (flush or
        fault-drain). When the last pending replica rebinds, the
        drain resolves and its :class:`ReconfigEvent` is recorded
        with ``applied_ms`` = that final cutover instant.
        """
        state = self._drain_state
        if state is None or replica.replica_id not in state["pending"]:
            return
        state["pending"].discard(replica.replica_id)
        view, wipe = state["binds"][replica.replica_id]
        replica.index = view
        if wipe:
            replica.wipe_cache()
        state["last_ms"] = max(state["last_ms"], at_ms)
        state["drained"] += 1
        if not state["pending"]:
            self._drain_state = None
            self._record_reconfig(
                state["op"], state["from"], state["to"],
                state["last_ms"], state["drained"], state["moved"],
            )

    def _force_finish_drain(
        self, at_ms: float, responses: list[Response]
    ) -> None:
        """Preempt an unfinished drain: flush every still-pending
        replica under its old binding and rebind it at ``at_ms``."""
        state = self._drain_state
        if state is None:
            return
        for replica_id in sorted(state["pending"]):
            replica = self._replica_by_id[replica_id]
            batch = replica.batcher.flush_now(at_ms)
            if batch is not None:
                self._execute(replica, batch, responses)
            if (
                self._drain_state is state
                and replica_id in state["pending"]
            ):
                self._finish_replica_drain(replica, at_ms)

    def _record_reconfig(
        self,
        op: Reconfiguration,
        from_version: str,
        to_version: str,
        applied_ms: float,
        drained: int,
        moved_keys: int = 0,
    ) -> None:
        event = ReconfigEvent(
            kind=op.kind,
            scheduled_ms=op.at_ms,
            applied_ms=applied_ms,
            from_version=from_version,
            to_version=to_version,
            drained_batches=drained,
            moved_keys=moved_keys,
        )
        self._reconfig_log.append(event)
        self.metrics.counter("service.reconfig.applied").inc()
        self.metrics.counter(f"service.reconfig.{op.kind}").inc()
        self.metrics.histogram(
            "service.reconfig.lag_ms", RECONFIG_LAG_BOUNDS_MS
        ).observe(event.lag_ms)

    def _requeue(
        self,
        request: Request,
        at_ms: float,
        attempt: int = 1,
        causes: tuple[str, ...] = (),
    ) -> None:
        self._redispatch_seq += 1
        heapq.heappush(
            self._redispatch,
            (at_ms, self._redispatch_seq, attempt, request),
        )
        self.metrics.counter("service.cluster.redispatches").inc()
        if self._obs_log is not None:
            rid = request.request_id
            self._requeues[rid] = self._requeues.get(rid, 0) + 1
        if causes and self.audit is not None:
            self._blame.setdefault(request.request_id, []).extend(causes)
        if causes and self.tracer is not None:
            for cause in causes:
                replica_id, _, channel = cause.partition(":")
                self.tracer.defer_span(
                    "redispatch",
                    kind="service.redispatch",
                    rid=request.request_id,
                    replica=replica_id,
                    channel=channel,
                    at_ms=at_ms,
                )

    def _shed(
        self,
        request: Request,
        responses: list[Response],
        status: int,
        source: str,
        at_ms: float | None = None,
    ) -> None:
        self.metrics.counter("service.requests.shed").inc()
        if status == 503:
            self.metrics.counter("service.cluster.unavailable_shed").inc()
        completion = at_ms if at_ms is not None else request.arrival_ms
        if self._obs_log is not None:
            # Shed entries are tagged by a None replica slot. The
            # serving generation is captured per entry: materialization
            # happens after the run, when only the final index remains.
            self._obs_log.append(
                (None, request, status, source, completion,
                 self.index.version)
            )
        responses.append(
            Response(
                request_id=request.request_id,
                status=status,
                body=None,
                arrival_ms=request.arrival_ms,
                start_ms=request.arrival_ms,
                completion_ms=completion,
                source=source,
                index_version=self.index.version,
            )
        )

    # -- dispatch and execution --------------------------------------------------

    def _dispatch(
        self,
        request: Request,
        ready_ms: float,
        responses: list[Response],
        attempt: int = 0,
    ) -> None:
        """Place one admitted request on a replica of its shard."""
        shard_id = self.shard_for(request.kind, request.target)
        replicas = self.replicas[shard_id]
        faults = self._faults
        alive = replicas if faults is None else [
            r for r in replicas if faults.available(r.replica_id, ready_ms)
        ]
        if not alive:
            if attempt + 1 >= self.cluster.max_dispatch_attempts:
                self._shed(
                    request, responses, status=503, source="shed",
                    at_ms=ready_ms,
                )
                return
            # Every replica of the shard is down: wait for the first
            # one back. The wake-up instant is a pure function of the
            # fault schedule, so the retry replays exactly.
            wake = min(
                faults.next_available_at(r.replica_id, ready_ms)
                for r in replicas
            )
            causes = tuple(
                f"{r.replica_id}:"
                f"{faults.unavailable_channel(r.replica_id, ready_ms) or 'unavailable'}"
                for r in replicas
            )
            self._requeue(request, wake, attempt + 1, causes=causes)
            return
        if self.cluster.replicas_per_shard == 1:
            replica = alive[0]  # every policy picks a lone replica
        else:
            outstanding = (
                [replica.outstanding(ready_ms) for replica in alive]
                if self._track_load
                else ()
            )
            replica = alive[
                self._picker.pick(
                    shard_id,
                    len(alive),
                    outstanding,
                    request.request_id,
                    attempt=attempt,
                )
            ]
        self._dispatched += 1
        batch = replica.batcher.add(request, ready_ms)
        if batch is not None:
            self._execute(replica, batch, responses)

    def _execute(
        self, replica: _Replica, batch: Batch, responses: list[Response]
    ) -> None:
        """Resolve one flushed batch on one replica.

        Cache pass, coalesced lookups, latency assignment, emission —
        plus the replica-level fault geometry: lookups pay the replica's slow/catch-up
        multipliers and congestion, and any group whose completion
        lands past the replica's next failure onset is *lost in
        flight*: its requests go back to the router at the failure
        instant instead of producing responses.
        """
        faults = self._faults
        flush_ms = batch.flush_ms
        groups = batch.groups()
        rid = replica.replica_id
        metrics = replica.metrics
        version = replica.index.version
        failure = faults.next_failure(rid, flush_ms) if faults else None
        fail_at, fail_channel = failure if failure else (None, "")
        slow = faults.slow_factor(rid) if faults else 1.0
        catchup = faults.catchup_factor(rid, flush_ms) if faults else 1.0
        per_inflight = self.cluster.congestion_ms_per_inflight
        congestion_ms = (
            per_inflight * replica.outstanding(flush_ms)
            if per_inflight
            else 0.0
        )

        # Cache pass (order = first-arrival order).
        resolved: dict[str, tuple[int, object]] = {}
        latency: dict[str, float] = {}
        spike: dict[str, float] = {}
        jobs: list[str] = []
        for key in groups:
            lost = faults.cache_lost(key, rid) if faults else False
            if lost:
                metrics.counter("service.cache.faults").inc()
            hit = None if lost else replica.cache.get(key, flush_ms)
            if hit is not None:
                resolved[key] = hit
                latency[key] = self.config.cache_hit_latency_ms
            else:
                jobs.append(key)

        # Index pass: pure lookups against the replica's frozen view.
        for key in jobs:
            carrier = groups[key][0].request
            outcome = answer(replica.index, carrier.kind, carrier.target)
            resolved[key] = outcome
            spiked = faults.spike_ms(key, rid) if faults else 0.0
            if spiked:
                metrics.counter("service.index.spikes").inc()
            spike[key] = spiked
            latency[key] = (
                key_latency_ms(version, key, self.config.index_latency_ms)
                * slow
                * catchup
                + spiked
                + congestion_ms
            )
            metrics.counter("service.index.lookups").inc()

        # Emission pass: responses, counters, spans — or loss.
        fresh = set(jobs)
        for key, items in groups.items():
            completion_ms = flush_ms + latency[key]
            if fail_at is not None and completion_ms > fail_at:
                # The replica dies under this group: everything it was
                # computing is lost; the router re-dispatches at the
                # failure instant. No response, no cache write.
                metrics.counter("service.cluster.lost_inflight").inc(
                    len(items)
                )
                cause = f"{rid}:{fail_channel}"
                for item in items:
                    self._requeue(item.request, fail_at, causes=(cause,))
                continue
            status, body = resolved[key]
            if key in fresh:
                replica.cache.put(key, resolved[key], flush_ms)
            if self._track_load:
                replica.note_completion(completion_ms, len(items))
            if self._obs_log is not None:
                # One compact entry per coalesced group; spans,
                # exemplars, and audit records expand from it in
                # _materialize_observations, off the serving path.
                # The generation serving the group rides along — the
                # replica's *own* binding, not the front door's:
                # during a rolling drain the fleet index has already
                # moved while this batch still answers from the old
                # generation.
                self._obs_log.append((
                    replica, key, items, status, completion_ms,
                    key in fresh, latency[key], spike.get(key, 0.0),
                    version,
                ))
            metrics.counter(
                "service.requests.ok"
                if status == 200
                else "service.requests.failed"
            ).inc(len(items))
            histogram = metrics.histogram(
                "service.latency_ms", LATENCY_BOUNDS_MS
            )
            source = "index" if key in fresh else "cache"
            for item in items:
                request = item.request
                histogram.observe(completion_ms - request.arrival_ms)
                responses.append(
                    Response(
                        request_id=request.request_id,
                        status=status,
                        body=body,
                        arrival_ms=request.arrival_ms,
                        start_ms=item.ready_ms,
                        completion_ms=completion_ms,
                        source=source,
                        index_version=version,
                    )
                )
                source = "coalesced"
        if self._drain_state is not None:
            # The queued batch has finished under the old binding;
            # this replica's drained cutover lands at its flush
            # instant (a membership no-op for replicas not draining).
            self._finish_replica_drain(replica, flush_ms)

    def _materialize_observations(
        self,
        log: list[tuple],
        blame: dict[int, list[str]],
        requeues: dict[int, int],
        service_span_id: str | None,
    ) -> None:
        """Expand one serve run's observation log into spans,
        exemplars, and audit records (request spans parent under
        ``service_span_id``).

        Runs exactly once, on the first read of any telemetry
        surface, off the measured serving path. Entries replay in
        event order, so every derived artifact is as deterministic as
        the log itself. Blame trails and re-queue counts are frozen by
        the time a request's entry exists (a request that produced a
        response or a shed is never dispatched again), so reading
        them here matches what eager emission would have recorded;
        dispatch attempts reconstruct as 1 + the re-queue count for
        any request that reached a replica or exhausted its attempts
        (front-door sheds never dispatched, so they report 0).
        """
        tracer = self.tracer
        audit = self.audit
        rollup = self.metrics.histogram(
            "service.latency_ms", LATENCY_BOUNDS_MS
        )
        replica_hists: dict[str, object] = {}
        for entry in log:
            replica = entry[0]
            if replica is None:
                _, request, status, source, completion, version = entry
                rid = request.request_id
                if tracer is not None:
                    tracer.defer_span(
                        "request",
                        kind="service.request",
                        parent=service_span_id,
                        rid=rid,
                        key=request.key,
                        status=status,
                        shed=True,
                    )
                if audit is not None:
                    if status == 503:
                        reason = "unavailable"
                    elif source == "quota":
                        reason = "quota"
                    else:
                        reason = "admission"
                    audit.emit(
                        request, status, "shed", reason, source, "", "", "",
                        requeues.get(rid, 0) + 1 if status == 503 else 0,
                        tuple(blame.get(rid, ())),
                        request.arrival_ms, completion, version,
                    )
                continue
            (
                _, key, items, status, completion_ms,
                fresh, latency_ms, spike_ms, version,
            ) = entry
            if tracer is not None:
                self._trace_group(
                    replica, key, items, status, completion_ms,
                    fresh, latency_ms, spike_ms, service_span_id,
                )
            family = replica_hists.get(replica.replica_id)
            if family is None:
                family = self.metrics.histogram(
                    f"service.replica.{replica.replica_id}"
                    ".service.latency_ms",
                    LATENCY_BOUNDS_MS,
                )
                replica_hists[replica.replica_id] = family
            outcome = "ok" if status == 200 else "error"
            for position, item in enumerate(items):
                request = item.request
                rid = request.request_id
                latency = completion_ms - request.arrival_ms
                exemplar = f"rid={rid}|replica={replica.replica_id}"
                rollup.offer_exemplar(latency, exemplar, at_ms=completion_ms)
                family.offer_exemplar(latency, exemplar, at_ms=completion_ms)
                if audit is not None:
                    if position == 0:
                        source = "index" if fresh else "cache"
                        coalesce = "carrier" if fresh else "hit"
                    else:
                        source = "coalesced"
                        coalesce = "rider"
                    audit.emit(
                        request, status, outcome, "", source, coalesce,
                        replica.shard_id, replica.replica_id,
                        requeues.get(rid, 0) + 1,
                        tuple(blame.get(rid, ())),
                        item.ready_ms, completion_ms, version,
                    )

    def _trace_group(
        self,
        replica: _Replica,
        key: str,
        items,
        status: int,
        completion_ms: float,
        fresh: bool,
        latency_ms: float,
        spike_ms: float,
        service_span_id: str | None,
    ) -> None:
        """Emit request → index-lookup spans for one coalesced group,
        tagged with the serving replica and shard, under the run's
        ``service`` span. All spans are
        deferred (:meth:`Tracer.defer_span`): the serving loop pays a
        tuple append per span, and the objects materialize when the
        trace is read."""
        tracer = self.tracer
        carrier = items[0].request
        parent = tracer.defer_span(
            "request",
            kind="service.request",
            parent=service_span_id,
            virtual_ms=completion_ms - carrier.arrival_ms,
            rid=carrier.request_id,
            key=key,
            status=status,
            coalesced_riders=len(items) - 1,
            shard=replica.shard_id,
            replica=replica.replica_id,
        )
        if fresh:
            tracer.defer_span(
                "index-lookup",
                kind="service.index",
                parent=parent,
                virtual_ms=latency_ms,
                key=key,
                spiked=bool(spike_ms),
                replica=replica.replica_id,
            )
        for item in items[1:]:
            tracer.defer_span(
                "request",
                kind="service.request",
                parent=service_span_id,
                virtual_ms=completion_ms - item.request.arrival_ms,
                rid=item.request.request_id,
                key=key,
                status=status,
                coalesced=True,
                replica=replica.replica_id,
            )


#: The single node's topology: one shard, one replica.
_SINGLE_NODE = ClusterConfig(n_shards=1, replicas_per_shard=1)


class LinkStatusService(ClusterService):
    """The single node: the serving engine pinned to one shard × one
    replica (``shard-0`` / ``s0r0``), constructed without a topology.
    It holds no serving logic of its own; a rebalance schedule is
    rejected because one shard has nothing to move."""

    def __init__(
        self,
        index: LinkStatusIndex,
        config: ServerConfig = ServerConfig(),
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        faults: ServiceFaultPlan | None = None,
        audit: AuditLog | None = None,
    ) -> None:
        super().__init__(
            index, config, _SINGLE_NODE,
            metrics=metrics, tracer=tracer, faults=faults, audit=audit,
        )

    # Bound in this class's own namespace too, so instrumentation that
    # resolves methods through ``__dict__`` (the end-to-end benchmark's
    # layer map) finds the serve loop under either class.
    serve = ClusterService.serve
