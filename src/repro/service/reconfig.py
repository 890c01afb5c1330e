"""The reconfiguration plane: every index/topology change, one shape.

Before this module, the serving tiers knew exactly one way to change
state: a whole-snapshot generation swap that waited for no one, and
shards that could never move. This module refactors *all* index and
topology change into a single copy-on-write
:class:`Reconfiguration` abstraction with three instances:

- :class:`GenerationSwap` — install a full
  :class:`~repro.service.index.LinkStatusIndex` generation;
- :class:`DeltaApply` — install a generation by applying a
  content-hash-versioned :class:`GenerationDelta` (upserts + removals
  for the dirty URL set) to the currently serving generation,
  producing an index **byte-identical** to the full snapshot
  (:func:`apply_delta` verifies the content hash and refuses to
  diverge);
- :class:`RebalancePlan` — move routing keys (registrable domains)
  between shards mid-replay, same generation, ownership actually
  migrating.

Every instance supports two application disciplines:

- **atomic** (``drain=False``) — the open batch force-flushes at the
  reconfiguration instant under the old binding, then the new binding
  installs; this is the pre-existing swap semantics;
- **drain** (``drain=True``) — each replica finishes its queued batch
  under the old binding at the batch's own flush instant and only
  then rebinds, which is what makes per-replica *rolling* swaps
  possible: replicas cut over one by one as their batches close, and
  no response ever mixes generations because every response is
  labeled with (and derived from) the binding that actually computed
  it. Drains are bounded by the batcher's ``max_wait_ms``.

:func:`normalize_schedule` is the single validation choke point for
``swaps=`` schedules on both serving tiers: it accepts typed
reconfigurations only, and rejects malformed schedules **up front**
with :class:`ReconfigError` instead of failing mid-replay — any entry
that is not a :class:`Reconfiguration`, duplicate ``at_ms``,
non-monotonic target versions (a swap that re-installs the generation
already serving), empty indexes, and broken delta chains.

Applied reconfigurations are recorded as :class:`ReconfigEvent`
entries on the serve result; ``applied_ms - scheduled_ms`` is the
reconfiguration lag the SLO layer grades via
:func:`repro.obs.slo.events_from_reconfigs`.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left
from dataclasses import dataclass, field

from ..errors import ReproError
from .index import LinkStatusEntry, LinkStatusIndex, _measurement_key
from .router import rendezvous_owner

__all__ = [
    "DeltaApply",
    "GenerationDelta",
    "GenerationSwap",
    "RebalancePlan",
    "ReconfigError",
    "ReconfigEvent",
    "Reconfiguration",
    "apply_delta",
    "normalize_schedule",
    "plan_rebalance",
    "snapshot_wire_bytes",
]

#: Histogram bounds for reconfiguration apply lag (virtual ms): 0 is
#: an atomic apply, anything positive is drain time, bounded by the
#: batcher's ``max_wait_ms``.
RECONFIG_LAG_BOUNDS_MS: tuple[float, ...] = (
    0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0,
)


class ReconfigError(ReproError):
    """A malformed or inapplicable reconfiguration."""


# -- wire accounting --------------------------------------------------------------


def _entry_wire(entry: LinkStatusEntry) -> dict:
    """What shipping one entry to a replica costs on the wire.

    The measurement projection (exactly the fields the version hash
    covers) plus the routing fields (``hostname``/``domain``) a
    replica needs to rebuild its lookup tables. Provenance cost
    counters stay out: they are informational and never shipped.
    """
    wire = _measurement_key(entry)
    wire["hostname"] = entry.hostname
    wire["domain"] = entry.domain
    return wire


def _canonical_bytes(payload: object) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def snapshot_wire_bytes(index: LinkStatusIndex) -> int:
    """Bytes to ship one full generation snapshot to a replica.

    The same codec as :meth:`GenerationDelta.wire_bytes`, so "delta
    bytes vs snapshot bytes" is an apples-to-apples comparison.
    """
    return len(
        _canonical_bytes(
            {
                "version": index.version,
                "entries": [_entry_wire(e) for e in index.entries],
                "gap_days": list(index.gap_days),
            }
        )
    )


def _lis_indexes(values: list[int]) -> set[int]:
    """Indexes of one longest strictly increasing subsequence.

    Survivors on this subsequence keep their base-relative order in
    the target, so :func:`apply_delta`'s in-order fill places them
    correctly without shipping them; everything off it must be pinned.
    """
    tails: list[int] = []  # smallest tail value of an LIS of each length
    tail_index: list[int] = []
    prev = [-1] * len(values)
    for i, value in enumerate(values):
        j = bisect_left(tails, value)
        if j == len(tails):
            tails.append(value)
            tail_index.append(i)
        else:
            tails[j] = value
            tail_index[j] = i
        if j > 0:
            prev[i] = tail_index[j - 1]
    keep: set[int] = set()
    i = tail_index[-1] if tail_index else -1
    while i != -1:
        keep.add(i)
        i = prev[i]
    return keep


# -- generation deltas ------------------------------------------------------------


@dataclass(frozen=True)
class GenerationDelta:
    """The dirty subset between two generations, content-addressed.

    ``upserts`` carry ``(position, entry)`` — the entry's absolute
    position in the target generation's record order — because entry
    order feeds the index content hash: a delta must let a replica
    reconstruct the target's ``entries`` tuple *exactly*, not just
    its membership. Entries absent from ``upserts`` keep their
    relative order from the base generation and fill the remaining
    positions. ``gap_days`` rides along whole (a small aggregate
    tuple that also feeds the hash).

    :meth:`between` verifies self-application at build time: the
    delta it returns is guaranteed to reproduce ``target.version``.
    """

    from_version: str
    to_version: str
    upserts: tuple[tuple[int, LinkStatusEntry], ...]
    removals: tuple[str, ...]
    gap_days: tuple[float, ...]

    @classmethod
    def between(
        cls, base: LinkStatusIndex, target: LinkStatusIndex
    ) -> "GenerationDelta":
        """Diff two generations into the minimal verified delta.

        Upserts are entries whose *measurement* is new or changed
        (provenance-only drift ships nothing — it is not part of the
        version hash or the wire answer), plus unchanged entries
        whose position moved relative to the surviving base order
        (position feeds the hash too, so they must be pinned).
        """
        base_by_url = {entry.url: entry for entry in base.entries}
        target_urls = {entry.url for entry in target.entries}
        removals = tuple(
            entry.url
            for entry in base.entries
            if entry.url not in target_urls
        )
        upserts: list[tuple[int, LinkStatusEntry]] = []
        for position, entry in enumerate(target.entries):
            old = base_by_url.get(entry.url)
            if old is None or _measurement_key(old) != _measurement_key(entry):
                upserts.append((position, entry))
        delta = cls(
            from_version=base.version,
            to_version=target.version,
            upserts=tuple(upserts),
            removals=removals,
            gap_days=tuple(target.gap_days),
        )
        try:
            apply_delta(base, delta)
        except ReconfigError:
            # Surviving entries changed relative order between
            # generations (sample churn reshuffling the record
            # stream). Pin the minimal extra set: survivors on a
            # longest increasing subsequence of target positions
            # still ride along implicitly; only the ones that jumped
            # out of that order need explicit positions.
            upserted = {entry.url for _, entry in delta.upserts}
            position_of = {
                entry.url: position
                for position, entry in enumerate(target.entries)
            }
            chain = [
                (position_of[entry.url], entry)
                for entry in base.entries
                if entry.url in position_of and entry.url not in upserted
            ]
            keep = _lis_indexes([position for position, _ in chain])
            pinned = [
                pair for i, pair in enumerate(chain) if i not in keep
            ]
            delta = cls(
                from_version=base.version,
                to_version=target.version,
                upserts=tuple(sorted(upserts + pinned)),
                removals=removals,
                gap_days=tuple(target.gap_days),
            )
            apply_delta(base, delta)
        return delta

    @property
    def delta_id(self) -> str:
        """Content hash of the delta payload (mirrors ``lsi-`` ids)."""
        digest = hashlib.sha256(_canonical_bytes(self._payload()))
        return f"gd-{digest.hexdigest()[:16]}"

    def _payload(self) -> dict:
        return {
            "from": self.from_version,
            "to": self.to_version,
            "upserts": [
                [position, _entry_wire(entry)]
                for position, entry in self.upserts
            ],
            "removals": list(self.removals),
            "gap_days": list(self.gap_days),
        }

    def wire_bytes(self) -> int:
        """Bytes to ship this delta to a replica (canonical JSON)."""
        return len(_canonical_bytes(self._payload()))

    def summary(self) -> str:
        return (
            f"delta {self.delta_id} {self.from_version} -> "
            f"{self.to_version}: {len(self.upserts)} upserts, "
            f"{len(self.removals)} removals, {self.wire_bytes()} bytes"
        )


def apply_delta(
    base: LinkStatusIndex, delta: GenerationDelta
) -> LinkStatusIndex:
    """Apply ``delta`` to ``base``, producing the target generation.

    The result is **byte-identical** to the full snapshot the delta
    was built from: same entry order, same aggregates, and therefore
    the same content-hash ``version`` — verified here, with a
    :class:`ReconfigError` rather than a silently divergent index on
    any mismatch.
    """
    if base.version != delta.from_version:
        raise ReconfigError(
            f"delta applies to {delta.from_version}, but the serving "
            f"generation is {base.version}"
        )
    removed = set(delta.removals)
    upserted = {entry.url for _, entry in delta.upserts}
    if len(upserted) != len(delta.upserts):
        raise ReconfigError(
            f"corrupt delta {delta.delta_id}: a URL is upserted twice"
        )
    survivors = [
        entry
        for entry in base.entries
        if entry.url not in removed and entry.url not in upserted
    ]
    total = len(survivors) + len(delta.upserts)
    slots: list[LinkStatusEntry | None] = [None] * total
    for position, entry in delta.upserts:
        if not (0 <= position < total) or slots[position] is not None:
            raise ReconfigError(
                f"corrupt delta {delta.delta_id}: upsert position "
                f"{position} out of range or duplicated"
            )
        slots[position] = entry
    fill = iter(survivors)
    entries = tuple(
        slot if slot is not None else next(fill) for slot in slots
    )
    index = LinkStatusIndex(entries=entries, gap_days=delta.gap_days)
    if index.version != delta.to_version:
        raise ReconfigError(
            f"delta application diverged: expected {delta.to_version}, "
            f"built {index.version}"
        )
    return index


# -- the reconfiguration instances ------------------------------------------------


@dataclass(frozen=True)
class Reconfiguration:
    """One scheduled, copy-on-write change to a serving tier.

    Subclasses say *what* changes (generation, delta, shard
    ownership); ``drain`` says *how* it lands (rolling per-replica
    drains vs one atomic force-flush). The serving tiers treat every
    instance identically: resolve the new binding, then either
    force-flush-and-rebind or let each replica's open batch close
    under the old binding first.
    """

    at_ms: float
    drain: bool = False

    @property
    def kind(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class GenerationSwap(Reconfiguration):
    """Install a full index generation (the classic swap)."""

    index: LinkStatusIndex = None  # type: ignore[assignment]

    @property
    def kind(self) -> str:
        return "swap"


@dataclass(frozen=True)
class DeltaApply(Reconfiguration):
    """Install a generation by applying a delta to the serving one."""

    delta: GenerationDelta = None  # type: ignore[assignment]

    @property
    def kind(self) -> str:
        return "delta"


@dataclass(frozen=True)
class RebalancePlan(Reconfiguration):
    """Migrate routing keys between shards, same generation.

    ``moves`` maps routing keys (registrable domains for URL/domain
    queries) to their new owning shard. Applying a plan updates the
    router's ownership table, re-partitions the serving generation's
    shard views, and rebinds the affected shards' replicas through
    the same drain machinery swaps use. The generation does not
    change, so caches stay warm (a cached body is a pure function of
    (generation, key) — it cannot go stale within a generation) and
    responses keep their version labels.

    Defaults to ``drain=True``: migrating ownership under an open
    batch atomically would strand the batch's requests on a replica
    that no longer owns them.
    """

    drain: bool = True
    moves: tuple[tuple[str, str], ...] = ()

    @property
    def kind(self) -> str:
        return "rebalance"


def plan_rebalance(
    keys,
    old_shards: tuple[str, ...],
    new_shards: tuple[str, ...],
    at_ms: float,
    drain: bool = True,
) -> RebalancePlan:
    """The HRW-minimal plan for a shard-set change.

    Rendezvous hashing's minimal-disruption property, operationalized:
    the plan moves exactly the keys whose rendezvous owner differs
    between the two shard sets — when a shard is added, only keys the
    new shard wins move (onto it); when one is removed, only its keys
    move (off it); every other key stays put. Pinned by hypothesis in
    the test suite.
    """
    moves = tuple(
        (key, rendezvous_owner(key, new_shards))
        for key in keys
        if rendezvous_owner(key, old_shards)
        != rendezvous_owner(key, new_shards)
    )
    return RebalancePlan(at_ms=at_ms, drain=drain, moves=moves)


# -- applied-reconfiguration records ----------------------------------------------


@dataclass(frozen=True, slots=True)
class ReconfigEvent:
    """One applied reconfiguration, as the serving tier saw it.

    ``applied_ms`` is when the *last* binding cut over: equal to
    ``scheduled_ms`` for atomic applies, later by up to the batcher's
    ``max_wait_ms`` for drained ones. The difference is the
    reconfiguration lag the SLO layer grades.
    """

    kind: str
    scheduled_ms: float
    applied_ms: float
    from_version: str
    to_version: str
    #: Batches that finished under the old binding after the
    #: reconfiguration instant (0 for atomic applies).
    drained_batches: int = 0
    #: Routing keys migrated (rebalances only).
    moved_keys: int = 0

    @property
    def lag_ms(self) -> float:
        """Schedule-to-cutover lag (the drain time)."""
        return self.applied_ms - self.scheduled_ms

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "scheduled_ms": self.scheduled_ms,
            "applied_ms": self.applied_ms,
            "lag_ms": self.lag_ms,
            "from_version": self.from_version,
            "to_version": self.to_version,
            "drained_batches": self.drained_batches,
            "moved_keys": self.moved_keys,
        }


# -- schedule validation ----------------------------------------------------------


def normalize_schedule(
    swaps,
    initial: LinkStatusIndex,
    *,
    shard_ids: tuple[str, ...] = (),
) -> list[Reconfiguration]:
    """Validate a ``swaps=`` schedule up front; return typed ops.

    Accepts :class:`Reconfiguration` instances and returns them
    sorted by schedule time. Raises :class:`ReconfigError` — *before*
    the replay starts — for every malformation that used to surface
    as a mid-replay assertion or silent corruption:

    - an entry that is not a :class:`Reconfiguration` (an
      ``(at_ms, index)`` pair included: wrap it in
      :class:`GenerationSwap`);
    - duplicate ``at_ms`` (two reconfigurations cannot share an
      instant; the tie would be resolved by list order, which callers
      do not control after sorting);
    - an empty index (a generation with no entries can answer
      nothing; installing one is always a schedule bug);
    - non-monotonic versions: a swap or delta whose target is the
      generation already serving at that point in the schedule
      (a no-op "swap" that would still wipe every cache);
    - a delta whose ``from_version`` is not the generation that will
      be serving when it lands (broken delta chain);
    - a rebalance on a tier with fewer than two ``shard_ids`` (one
      shard has nothing to move keys between), with no moves, with
      duplicate keys, or targeting an unknown shard id.
    """
    if not swaps:
        return []
    ops: list[Reconfiguration] = list(swaps)
    for op in ops:
        if not isinstance(op, Reconfiguration):
            raise ReconfigError(
                f"schedule entries must be Reconfiguration instances "
                f"(GenerationSwap, DeltaApply, RebalancePlan), got {op!r}"
            )
    ops.sort(key=lambda op: op.at_ms)
    for earlier, later in zip(ops, ops[1:]):
        if later.at_ms <= earlier.at_ms:
            raise ReconfigError(
                f"swap schedule must be strictly increasing: "
                f"{earlier.kind} and {later.kind} both at "
                f"{later.at_ms}ms"
            )
    current = initial.version
    for op in ops:
        if isinstance(op, GenerationSwap):
            if op.index is None or len(op.index) == 0:
                raise ReconfigError(
                    f"swap at {op.at_ms}ms installs an empty index"
                )
            if op.index.version == current:
                raise ReconfigError(
                    f"swap at {op.at_ms}ms re-installs the serving "
                    f"generation {current} (versions must move)"
                )
            current = op.index.version
        elif isinstance(op, DeltaApply):
            if op.delta is None:
                raise ReconfigError(
                    f"delta apply at {op.at_ms}ms carries no delta"
                )
            if op.delta.from_version != current:
                raise ReconfigError(
                    f"broken delta chain at {op.at_ms}ms: delta "
                    f"applies to {op.delta.from_version}, but "
                    f"{current} will be serving"
                )
            if op.delta.to_version == current:
                raise ReconfigError(
                    f"no-op delta at {op.at_ms}ms: {current} -> "
                    f"{current}"
                )
            current = op.delta.to_version
        elif isinstance(op, RebalancePlan):
            if len(shard_ids) < 2:
                raise ReconfigError(
                    f"rebalance scheduled on a tier with "
                    f"{len(shard_ids)} shard(s): nothing to move keys "
                    f"between"
                )
            if not op.moves:
                raise ReconfigError(
                    f"rebalance at {op.at_ms}ms moves nothing"
                )
            seen: set[str] = set()
            for key, target in op.moves:
                if key in seen:
                    raise ReconfigError(
                        f"rebalance at {op.at_ms}ms moves key "
                        f"{key!r} twice"
                    )
                seen.add(key)
                if target not in shard_ids:
                    raise ReconfigError(
                        f"rebalance at {op.at_ms}ms targets unknown "
                        f"shard {target!r}; known: {shard_ids}"
                    )
        else:  # pragma: no cover - future instance kinds
            raise ReconfigError(f"unknown reconfiguration {op!r}")
    return ops
