"""Service-side fault injection: key-level and replica-level chaos.

The serving layer gets the same chaos treatment the study pipeline got
in :mod:`repro.faults`: seeded, per-key, replayable. Two key-level
channels a read-only serving stack realistically has:

- ``index_spike`` — a faulted query key's index lookup pays
  ``index_spike_ms`` extra virtual latency (a slow shard, a cold
  page). Degrades tail latency; never changes a response body.
- ``cache_fault`` — a faulted key's cache reads are lost (a flaky
  cache node); the lookup falls through to the index. Degrades the
  hit rate; never changes a response body.

And four replica-level channels the cluster tier adds:

- ``replica_crash`` — a faulted replica goes down for a window
  ``[start, start + crash_duration_ms)`` (start drawn in
  ``[0, crash_horizon_ms)``), loses its cache and every in-flight
  request (the router re-dispatches them), then recovers and pays
  ``catchup_factor`` on lookups for ``catchup_ms`` while it warms
  back up.
- ``replica_partition`` — the replica is unreachable for a window but
  keeps its cache (a network partition, not a process death).
- ``replica_slow`` — a faulted replica pays ``slow_factor`` on every
  index lookup for the whole run (a degraded host).

**Every decision is a pure function of ``(plan seed, channel,
replica_id, key)``** — there are no attempt counters and no shared
RNG state. This is deliberate and load-bearing: a cluster's router
policy changes *which* replica serves a given request, and an
arrival-order- or attempt-keyed decision would make the chaos a run
experiences depend on the load-balancing policy under test. With pure
keying, the fault schedule (which replicas crash when, which keys are
spiked on which replica) is byte-identical across router policies,
serve modes, and runs — the regression test pins exactly this.

"Degrades only in documented ways" stays a test, not a hope: under
any :class:`ServiceFaultPlan`, every *served* response's status and
body are identical to the fault-free run; only latencies, hit rates,
and the shed set move (and the shed set only through replica loss).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

from ..faults import FaultSpec
from ..rng import derive_seed

__all__ = ["ReplicaFaultEvent", "ServiceFaultPlan", "ServiceFaults"]

_OFF = FaultSpec(rate=0.0)
_UNIT_DENOM = float(2**64)


@dataclass(frozen=True, slots=True)
class ReplicaFaultEvent:
    """One scheduled replica state transition (for reports and tests)."""

    at_ms: float
    replica_id: str
    kind: str  # crash | recover | partition | heal


@dataclass(frozen=True)
class ServiceFaultPlan:
    """Seeded chaos configuration for the serving layer."""

    seed: int = 0
    # -- key-level channels ------------------------------------------------------
    index_spike: FaultSpec = field(default_factory=lambda: _OFF)
    index_spike_ms: float = 50.0
    cache_fault: FaultSpec = field(default_factory=lambda: _OFF)
    # -- replica-level channels (cluster tier) -----------------------------------
    replica_crash: FaultSpec = field(default_factory=lambda: _OFF)
    crash_horizon_ms: float = 10_000.0
    crash_duration_ms: float = 2_000.0
    catchup_ms: float = 1_000.0
    catchup_factor: float = 2.0
    replica_partition: FaultSpec = field(default_factory=lambda: _OFF)
    partition_horizon_ms: float = 10_000.0
    partition_duration_ms: float = 1_500.0
    replica_slow: FaultSpec = field(default_factory=lambda: _OFF)
    slow_factor: float = 3.0

    def specs(self) -> dict[str, FaultSpec]:
        """Every channel spec by name, active or not."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if isinstance(getattr(self, f.name), FaultSpec)
        }

    @property
    def active(self) -> bool:
        """Whether any channel can fire under this plan."""
        return any(spec.active for spec in self.specs().values())

    @property
    def replica_active(self) -> bool:
        """Whether any replica-level channel can fire."""
        return (
            self.replica_crash.active
            or self.replica_partition.active
            or self.replica_slow.active
        )

    @classmethod
    def spikes(
        cls, rate: float, seed: int = 0, spike_ms: float = 50.0
    ) -> "ServiceFaultPlan":
        """Index latency spikes only (permanent per key: a hot-key tax)."""
        return cls(
            seed=seed,
            index_spike=FaultSpec(rate=rate, permanent=True),
            index_spike_ms=spike_ms,
        )

    @classmethod
    def flaky_cache(cls, rate: float, seed: int = 0) -> "ServiceFaultPlan":
        """Cache faults only (permanent per key: a lost cache shard)."""
        return cls(seed=seed, cache_fault=FaultSpec(rate=rate, permanent=True))

    @classmethod
    def crashes(
        cls,
        rate: float,
        seed: int = 0,
        horizon_ms: float = 10_000.0,
        duration_ms: float = 2_000.0,
    ) -> "ServiceFaultPlan":
        """Replica crashes only (with recovery and catch-up)."""
        return cls(
            seed=seed,
            replica_crash=FaultSpec(rate=rate, permanent=True),
            crash_horizon_ms=horizon_ms,
            crash_duration_ms=duration_ms,
        )

    @classmethod
    def partitions(
        cls,
        rate: float,
        seed: int = 0,
        horizon_ms: float = 10_000.0,
        duration_ms: float = 1_500.0,
    ) -> "ServiceFaultPlan":
        """Replica network partitions only (cache survives)."""
        return cls(
            seed=seed,
            replica_partition=FaultSpec(rate=rate, permanent=True),
            partition_horizon_ms=horizon_ms,
            partition_duration_ms=duration_ms,
        )

    @classmethod
    def slow_replicas(
        cls, rate: float, seed: int = 0, factor: float = 3.0
    ) -> "ServiceFaultPlan":
        """Permanently slow replicas only."""
        return cls(
            seed=seed,
            replica_slow=FaultSpec(rate=rate, permanent=True),
            slow_factor=factor,
        )


class ServiceFaults:
    """The plan's channels, armed: every query is a pure hash lookup.

    Key-level decisions take an optional ``replica_id`` so the same
    logical key can be healthy on one replica and faulted on another —
    a realistic failure geometry. Serving always passes the replica
    (the single node is replica ``s0r0``); the unscoped form hashes
    the bare key. Counting (``injected``) is bookkeeping layered on top of
    the pure decisions; it never feeds back into them.
    """

    def __init__(self, plan: ServiceFaultPlan) -> None:
        self.plan = plan
        self.injected = 0
        self._stream_seeds: dict[str, int] = {}

    # -- the one source of randomness --------------------------------------------

    def _unit(self, channel: str, salt: str, key: str) -> float:
        """A uniform [0, 1) draw, pure in ``(seed, channel, salt, key)``.

        Hash-compatible with :class:`repro.faults.inject.FaultChannel`
        (stream seed derived from ``faults.service.<channel>``, then
        ``{seed}:{salt}:{key}``), so the *set* of keys each key-level
        channel faults is byte-identical to what the stateful channel
        implementation selected under the same plan seed — only the
        attempt-counting transience is gone.
        """
        stream_seed = self._stream_seeds.get(channel)
        if stream_seed is None:
            stream_seed = derive_seed(self.plan.seed, f"faults.service.{channel}")
            self._stream_seeds[channel] = stream_seed
        digest = hashlib.sha256(
            f"{stream_seed}:{salt}:{key}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / _UNIT_DENOM

    def _hit(self, channel: str, spec: FaultSpec, key: str) -> bool:
        return spec.active and self._unit(channel, "hit", key) < spec.rate

    @staticmethod
    def _scoped(replica_id: str, key: str) -> str:
        return f"{replica_id}|{key}" if replica_id else key

    # -- key-level channels ------------------------------------------------------

    def spike_ms(self, key: str, replica_id: str = "") -> float:
        """Extra index-lookup latency for ``key`` on ``replica_id``."""
        if self._hit(
            "index_spike", self.plan.index_spike, self._scoped(replica_id, key)
        ):
            self.injected += 1
            return self.plan.index_spike_ms
        return 0.0

    def cache_lost(self, key: str, replica_id: str = "") -> bool:
        """Whether cache reads of ``key`` on ``replica_id`` are lost."""
        if self._hit(
            "cache", self.plan.cache_fault, self._scoped(replica_id, key)
        ):
            self.injected += 1
            return True
        return False

    # -- replica-level schedule (all pure) ---------------------------------------

    def crash_window(self, replica_id: str) -> tuple[float, float] | None:
        """``(start, end)`` of this replica's crash, or None."""
        plan = self.plan
        if not self._hit("crash", plan.replica_crash, replica_id):
            return None
        start = self._unit("crash", "start", replica_id) * plan.crash_horizon_ms
        return (start, start + plan.crash_duration_ms)

    def partition_window(self, replica_id: str) -> tuple[float, float] | None:
        """``(start, end)`` of this replica's partition, or None."""
        plan = self.plan
        if not self._hit("partition", plan.replica_partition, replica_id):
            return None
        start = (
            self._unit("partition", "start", replica_id)
            * plan.partition_horizon_ms
        )
        return (start, start + plan.partition_duration_ms)

    def slow_factor(self, replica_id: str) -> float:
        """This replica's permanent lookup-latency multiplier."""
        if self._hit("slow", self.plan.replica_slow, replica_id):
            return self.plan.slow_factor
        return 1.0

    def catchup_factor(self, replica_id: str, at_ms: float) -> float:
        """The post-recovery warm-up multiplier in force at ``at_ms``."""
        window = self.crash_window(replica_id)
        if window is None:
            return 1.0
        recovered = window[1]
        if recovered <= at_ms < recovered + self.plan.catchup_ms:
            return self.plan.catchup_factor
        return 1.0

    def available(self, replica_id: str, at_ms: float) -> bool:
        """Whether the replica can accept work at ``at_ms``."""
        for window in (
            self.crash_window(replica_id),
            self.partition_window(replica_id),
        ):
            if window is not None and window[0] <= at_ms < window[1]:
                return False
        return True

    def next_failure(
        self, replica_id: str, after_ms: float
    ) -> tuple[float, str] | None:
        """``(onset, channel)`` of the replica's next unavailability
        strictly after ``after_ms``, or None. The channel name is what
        the audit log's blame trail records — it is how a lost
        in-flight request gets attributed to "s0r1's *crash*" rather
        than just "s0r1"."""
        onsets = [
            (window[0], channel)
            for channel, window in (
                ("crash", self.crash_window(replica_id)),
                ("partition", self.partition_window(replica_id)),
            )
            if window is not None and window[0] > after_ms
        ]
        return min(onsets) if onsets else None

    def next_failure_at(
        self, replica_id: str, after_ms: float
    ) -> float | None:
        """The replica's next unavailability onset strictly after ``after_ms``."""
        failure = self.next_failure(replica_id, after_ms)
        return failure[0] if failure is not None else None

    def unavailable_channel(self, replica_id: str, at_ms: float) -> str | None:
        """Which channel has the replica down at ``at_ms`` (crash wins
        ties), or None when it is serving."""
        for channel, window in (
            ("crash", self.crash_window(replica_id)),
            ("partition", self.partition_window(replica_id)),
        ):
            if window is not None and window[0] <= at_ms < window[1]:
                return channel
        return None

    def next_available_at(
        self, replica_id: str, at_ms: float
    ) -> float | None:
        """Earliest instant >= ``at_ms`` the replica serves, or None.

        None means the replica never becomes available again within
        its scheduled windows — impossible here because windows are
        finite, so this only returns None for a replica with no
        schedule that is somehow asked while unavailable (it isn't).
        """
        probe = at_ms
        for _ in range(4):  # at most two disjoint windows to hop over
            for window in (
                self.crash_window(replica_id),
                self.partition_window(replica_id),
            ):
                if window is not None and window[0] <= probe < window[1]:
                    probe = window[1]
                    break
            else:
                return probe
        return probe

    def transitions(
        self, replica_ids: tuple[str, ...]
    ) -> tuple[ReplicaFaultEvent, ...]:
        """Every scheduled state transition, in time order.

        The cluster event loop interleaves these with batch deadlines
        and admission releases; tests and reports read them directly.
        """
        events: list[ReplicaFaultEvent] = []
        for replica_id in replica_ids:
            crash = self.crash_window(replica_id)
            if crash is not None:
                events.append(ReplicaFaultEvent(crash[0], replica_id, "crash"))
                events.append(
                    ReplicaFaultEvent(crash[1], replica_id, "recover")
                )
            partition = self.partition_window(replica_id)
            if partition is not None:
                events.append(
                    ReplicaFaultEvent(partition[0], replica_id, "partition")
                )
                events.append(
                    ReplicaFaultEvent(partition[1], replica_id, "heal")
                )
        events.sort(key=lambda e: (e.at_ms, e.replica_id, e.kind))
        return tuple(events)
