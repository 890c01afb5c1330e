"""Request coalescing and micro-batching on the virtual clock.

The serving analogue of the exec layer's memo caches: per-URL index
lookups repeat heavily under Zipf traffic, and duplicate *in-flight*
queries — several requests for one URL admitted into the same batch —
should share one computation, not race to repeat it.

:class:`MicroBatcher` accumulates admitted requests into a batch that
flushes when it reaches ``max_batch`` items or when ``max_wait_ms``
has elapsed (virtual time) since the batch opened, whichever comes
first. A flushed :class:`Batch` carries :attr:`Batch.groups`: its
items grouped by query key in first-arrival order — one group is one
index computation, however many requests ride it. An item is a
``(request, ready_ms)`` pair, ``ready_ms`` being the instant the
request's service token accrued (the start of its service time).

The batcher never reads a clock of its own; the server pushes time in
via ``ready_ms`` arguments and reads :attr:`MicroBatcher.deadline_ms`
when deciding what happens next. That inversion is what keeps batch
boundaries — and therefore coalescing counts — exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.metrics import BoundInstrument, MetricsRegistry

__all__ = ["Batch", "MicroBatcher"]

#: Histogram bounds for batch sizes (batches are small by design).
BATCH_SIZE_BOUNDS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True, slots=True)
class Batch:
    """A flushed batch: its ``(request, ready_ms)`` items, the instant
    it flushed, and the items grouped by query key.

    ``groups`` maps each key to its items in first-arrival order; each
    group is one coalesced computation: the first item is the
    *carrier* (it owns the index-lookup span), the rest share its
    result. Each request's key is computed once, when the batch
    flushes.
    """

    items: tuple[tuple, ...]
    opened_ms: float
    flush_ms: float
    groups: dict[str, list[tuple]]

    def __len__(self) -> int:
        return len(self.items)


class MicroBatcher:
    """Accumulates admitted requests; emits flush-ready batches.

    Args:
        max_batch: flush as soon as a batch holds this many items.
        max_wait_ms: flush a partial batch once this much virtual time
            has passed since it opened (the tail-latency bound a real
            micro-batching server promises).
        metrics: registry receiving ``service.batch.*`` counters.
    """

    _flushes = BoundInstrument("counter", "service.batch.flushes")
    _items = BoundInstrument("counter", "service.batch.items")
    _sizes = BoundInstrument(
        "histogram", "service.batch.size", BATCH_SIZE_BOUNDS
    )
    _coalesced = BoundInstrument("counter", "service.batch.coalesced")

    def __init__(
        self,
        max_batch: int = 8,
        max_wait_ms: float = 5.0,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        self.max_batch = max_batch
        self.max_wait_ms = max_wait_ms
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._pending: list[tuple] = []
        self._opened_ms: float | None = None
        #: When the open batch must flush, or None when empty. A plain
        #: attribute, set when a batch opens and cleared when it
        #: closes, so the event loop reads it without a call.
        self.deadline_ms: float | None = None

    @property
    def pending(self) -> int:
        """Items waiting in the open batch."""
        return len(self._pending)

    def add(self, request, ready_ms: float) -> Batch | None:
        """Admit one request at ``ready_ms``; return a batch if full.

        The returned batch (when the item completed it) flushes at the
        triggering item's ready time — a full batch never waits.
        """
        pending = self._pending
        if not pending:
            self._opened_ms = ready_ms
            self.deadline_ms = ready_ms + self.max_wait_ms
        pending.append((request, ready_ms))
        if len(pending) >= self.max_batch:
            return self._flush(flush_ms=ready_ms)
        return None

    def flush_due(self, now_ms: float) -> Batch | None:
        """Flush the open batch if its deadline is at or before ``now_ms``."""
        deadline = self.deadline_ms
        if deadline is None or deadline > now_ms:
            return None
        return self._flush(flush_ms=deadline)

    def flush(self) -> Batch | None:
        """Flush whatever is pending at its deadline (end-of-workload)."""
        if self._opened_ms is None:
            return None
        return self._flush(flush_ms=self.deadline_ms)

    def flush_now(self, now_ms: float) -> Batch | None:
        """Flush the open batch at ``now_ms`` regardless of deadline.

        Generation swaps use this: requests admitted before the swap
        instant must complete under the index they were admitted
        against, so the server force-flushes every open batch *at the
        swap instant* — earlier than its deadline — before installing
        the new generation. Callers must not pass a ``now_ms`` before
        the batch opened (time cannot run backwards).
        """
        if self._opened_ms is None:
            return None
        if now_ms < self._opened_ms:
            raise ValueError("flush_now before the batch opened")
        return self._flush(flush_ms=now_ms)

    def drain(self) -> tuple[tuple, ...]:
        """Abandon the open batch, returning its items un-executed.

        The cluster tier calls this when a replica crashes or
        partitions: whatever was waiting in its batcher is lost there
        and must be re-dispatched elsewhere. Counts under
        ``service.batch.drained``; deliberately *not* a flush — no
        batch is emitted and no size histogram is observed.
        """
        items = tuple(self._pending)
        self._pending.clear()
        self._opened_ms = self.deadline_ms = None
        if items:
            self.metrics.counter("service.batch.drained").inc(len(items))
        return items

    def _flush(self, flush_ms: float) -> Batch:
        items = tuple(self._pending)
        groups: dict[str, list[tuple]] = {}
        for item in items:
            groups.setdefault(item[0].key, []).append(item)
        batch = Batch(items, self._opened_ms, flush_ms, groups)
        self._pending.clear()
        self._opened_ms = self.deadline_ms = None
        self._flushes.inc()
        self._items.inc(len(items))
        self._sizes.observe(float(len(items)))
        self._coalesced.inc(len(items) - len(groups))
        return batch
