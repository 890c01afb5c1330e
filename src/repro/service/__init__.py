"""repro.service — a deterministic link-status query service.

The batch pipeline (:mod:`repro.analysis.study`) answers "what is the
state of every studied link" once, offline. This package turns that
answer into a *serving* system — the shape a production link-repair
bot or dashboard would consume — without giving up the repo's core
property: every response, latency, and overload decision is an exact,
replayable function of ``(study report, config, workload seed)``.

The stack, front to back:

- :class:`~repro.service.workload.WorkloadConfig` /
  :func:`~repro.service.workload.generate_workload` — seeded
  Zipf-over-URLs traffic with Poisson / flash-crowd / diurnal
  arrivals and optional multi-tenant labeling;
- :class:`~repro.service.admission.AdmissionController` — token-bucket
  rate limiting with a bounded FIFO queue and deterministic shedding;
- :class:`~repro.service.batcher.MicroBatcher` — micro-batching with
  duplicate-query coalescing;
- :class:`~repro.service.cache.ResultCache` — LRU + virtual-TTL result
  cache;
- :class:`~repro.service.index.LinkStatusIndex` — the immutable,
  content-hash-versioned snapshot built from a completed study;
- :class:`~repro.service.cluster.ClusterService` — the one serving
  engine: a discrete-event loop tying them together over the index
  rendezvous-partitioned by registrable domain into N shards × R
  replicas behind a deterministic router (:mod:`repro.service.router`),
  traced via :mod:`repro.obs`, chaos-testable via
  :class:`~repro.service.faults.ServiceFaultPlan`, and reconfigurable
  mid-replay via :mod:`repro.service.reconfig`; its answer surface is
  identical on every topology when faults are off;
- :class:`~repro.service.cluster.LinkStatusService` — the single
  node: that engine pinned to one shard × one replica;
- :mod:`repro.service.server` — the shared surface: config,
  :class:`~repro.service.server.Response`, result, and the pure
  :func:`~repro.service.server.answer` query function.
"""

from .admission import AdmissionController, AdmissionError, TokenBucket
from .audit import AuditLog, AuditRecord
from .audit import read_jsonl as read_audit_jsonl
from .batcher import Batch, MicroBatcher
from .cache import ResultCache
from .cluster import (
    ClusterConfig,
    ClusterService,
    LinkStatusService,
    ServiceReusedError,
    ShardIndex,
)
from .faults import ReplicaFaultEvent, ServiceFaultPlan, ServiceFaults
from .index import LinkStatusEntry, LinkStatusIndex
from .reconfig import (
    DeltaApply,
    GenerationDelta,
    GenerationSwap,
    RebalancePlan,
    ReconfigError,
    ReconfigEvent,
    Reconfiguration,
    apply_delta,
    normalize_schedule,
    plan_rebalance,
    snapshot_wire_bytes,
)
from .router import (
    POLICIES,
    ReplicaPicker,
    TenantQuotas,
    rendezvous_owner,
    rendezvous_score,
    routing_key,
)
from .server import (
    Response,
    ServerConfig,
    ServiceResult,
    key_latency_ms,
)
from .workload import PATTERNS, Request, WorkloadConfig, generate_workload

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "AuditLog",
    "AuditRecord",
    "Batch",
    "ClusterConfig",
    "ClusterService",
    "DeltaApply",
    "GenerationDelta",
    "GenerationSwap",
    "LinkStatusEntry",
    "LinkStatusIndex",
    "LinkStatusService",
    "MicroBatcher",
    "PATTERNS",
    "POLICIES",
    "RebalancePlan",
    "ReconfigError",
    "ReconfigEvent",
    "Reconfiguration",
    "ReplicaFaultEvent",
    "ReplicaPicker",
    "Request",
    "Response",
    "ResultCache",
    "ServerConfig",
    "ServiceFaultPlan",
    "ServiceFaults",
    "ServiceResult",
    "ServiceReusedError",
    "ShardIndex",
    "TenantQuotas",
    "TokenBucket",
    "WorkloadConfig",
    "apply_delta",
    "generate_workload",
    "key_latency_ms",
    "normalize_schedule",
    "plan_rebalance",
    "read_audit_jsonl",
    "rendezvous_owner",
    "rendezvous_score",
    "routing_key",
    "snapshot_wire_bytes",
]
