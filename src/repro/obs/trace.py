"""Span-based structured tracing for the study pipeline.

A :class:`Tracer` records a tree of :class:`Span`\\ s — study → phase →
shard → record → backend call — and serializes them to an append-only
JSONL event log (one finished span per line). Spans carry both clocks
the simulation cares about:

- **wall clock**: an epoch timestamp at span start plus a
  ``perf_counter``-measured duration;
- **virtual clock**: the :class:`~repro.clock.SimTime` instant the
  operation ran at (``sim_days``) and any *virtual* milliseconds it
  accounted (``virtual_ms`` — backoff delays, availability latency
  draws — time a real client would have spent that the simulation
  only books).

Tracing is strictly opt-in: every hook in the pipeline takes
``tracer=None`` and skips all span work when it is absent, so the
untraced hot path stays untouched. Shards buffer spans in their own
tracer (ids namespaced by a per-shard prefix) and hand them back
inside the shard result; the executor re-parents them under the
caller's span tree with :meth:`Tracer.adopt` — the same buffer-then-fold motion
the metrics and retry counters use.

Span ids and wall timestamps are explicitly *not* part of any
equivalence contract: a one-shard and an N-shard run of the same seeded
study produce the same aggregate metrics and byte-identical reports,
but their span trees differ in ids, interleaving, and wall durations.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from ..clock import SimTime


@dataclass
class Span:
    """One traced operation: identity, position in the tree, two clocks.

    Attributes:
        span_id: tracer-unique id (string; shard tracers prefix theirs
            so adoption into the caller's tree never collides).
        parent_id: enclosing span's id, or ``None`` for a root.
        name: human-readable operation name (``"probe+census"``,
            ``"record"``, ...).
        kind: machine-facing category (``"study"``, ``"phase"``,
            ``"shard"``, ``"record"``, ``"net.fetch"``,
            ``"backend.fetch"``, ``"backend.cdx"``, ``"availability"``).
        wall_start: ``time.time()`` at span entry (informational only).
        duration_s: wall duration measured with ``perf_counter``.
        sim_days: virtual instant the operation ran at, if one applies.
        virtual_ms: virtual milliseconds booked inside the span.
        attrs: free-form JSON-serializable attributes.
    """

    span_id: str
    parent_id: str | None
    name: str
    kind: str
    wall_start: float
    duration_s: float = 0.0
    sim_days: float | None = None
    virtual_ms: float = 0.0
    attrs: dict = field(default_factory=dict)

    def set(self, **attrs) -> None:
        """Attach or overwrite attributes on the live span."""
        self.attrs.update(attrs)

    def add_virtual_ms(self, ms: float) -> None:
        """Book virtual milliseconds (backoff, simulated latency)."""
        self.virtual_ms += ms

    def to_event(self) -> dict:
        """The JSONL event for this span."""
        event = {
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "wall_start": self.wall_start,
            "dur_s": self.duration_s,
        }
        if self.sim_days is not None:
            event["sim_days"] = self.sim_days
        if self.virtual_ms:
            event["virtual_ms"] = self.virtual_ms
        if self.attrs:
            event["attrs"] = self.attrs
        return event

    @classmethod
    def from_event(cls, event: dict) -> "Span":
        """Rebuild a span from one parsed JSONL event."""
        return cls(
            span_id=str(event["span"]),
            parent_id=event.get("parent"),
            name=event.get("name", ""),
            kind=event.get("kind", "span"),
            wall_start=float(event.get("wall_start", 0.0)),
            duration_s=float(event.get("dur_s", 0.0)),
            sim_days=event.get("sim_days"),
            virtual_ms=float(event.get("virtual_ms", 0.0)),
            attrs=dict(event.get("attrs", {})),
        )


class Tracer:
    """Collects spans in completion order; writes them as JSONL.

    Args:
        prefix: prepended to every span id this tracer issues. Worker
            shards use ``"w{start}."`` so their ids stay unique when
            the parent adopts them.
    """

    def __init__(self, prefix: str = "") -> None:
        self._prefix = prefix
        self._issued = 0
        self._stack: list[Span] = []
        #: Finished spans, in completion order (children before parents).
        self._spans: list[Span] = []
        #: Deferred span emissions from :meth:`defer_span` — compact
        #: tuples materialized into :class:`Span` objects only when
        #: the spans are read. ``_deferred_ids`` keeps the issued id
        #: of every already-materialized deferred span so buffered
        #: parent references (absolute defer indices) stay resolvable
        #: across drains.
        self._deferred: list[tuple] = []
        self._deferred_ids: list[str] = []
        #: Callables that backfill deferred spans on first read (the
        #: serving tier registers its observation-log expansion here).
        self._pending_sources: list = []

    def add_pending_source(self, source) -> None:
        """Register a callable that emits deferred spans when the
        trace is first read (mirrors
        :meth:`MetricsRegistry.add_pending_source`)."""
        self._pending_sources.append(source)

    @property
    def spans(self) -> list[Span]:
        """Finished spans, children before parents.

        Reading this runs any registered pending sources, then
        materializes any spans buffered by :meth:`defer_span` (they
        land after the already-finished eager spans; list order is
        not part of any contract — see the module docstring).
        """
        if self._pending_sources:
            sources, self._pending_sources = self._pending_sources, []
            for source in sources:
                source()
        if self._deferred:
            self._drain()
        return self._spans

    def _new_id(self) -> str:
        self._issued += 1
        return f"{self._prefix}{self._issued}"

    def defer_span(
        self,
        name: str,
        kind: str,
        parent: "int | str | None" = None,
        virtual_ms: float = 0.0,
        **attrs,
    ) -> int:
        """Buffer a pre-measured span; materialize it on first read.

        The serving tier emits tens of thousands of virtual-clock
        spans per replay, and constructing :class:`Span` objects
        inline would dominate the serving loop. This is the ring-
        buffer alternative: one tuple append now, object construction
        when the trace is consumed. Returns the span's *defer index*;
        pass it as ``parent`` to a later call to parent one deferred
        span under another. A string ``parent`` is an issued span id
        (e.g. an eager span that has since closed); ``None`` parents
        under the innermost currently-open eager span. Wall duration
        is recorded as 0 — deferred spans carry virtual time, which is
        the only clock the serving tier's spans mean anything on.
        """
        index = len(self._deferred_ids) + len(self._deferred)
        self._deferred.append(
            (parent if parent is not None else self.current_id,
             name, kind, virtual_ms, attrs)
        )
        return index

    def _drain(self) -> None:
        now = time.time()
        pending, self._deferred = self._deferred, []
        ids = self._deferred_ids
        for parent, name, kind, virtual_ms, attrs in pending:
            span = Span(
                span_id=self._new_id(),
                parent_id=ids[parent] if isinstance(parent, int) else parent,
                name=name,
                kind=kind,
                wall_start=now,
                duration_s=0.0,
                virtual_ms=virtual_ms,
                attrs=attrs,
            )
            ids.append(span.span_id)
            self._spans.append(span)

    @property
    def current_id(self) -> str | None:
        """Id of the innermost open span, or None outside any span."""
        return self._stack[-1].span_id if self._stack else None

    @contextmanager
    def span(
        self,
        name: str,
        kind: str = "span",
        sim: "SimTime | None" = None,
        **attrs,
    ) -> Iterator[Span]:
        """Open a child span of whatever span is currently innermost."""
        span = Span(
            span_id=self._new_id(),
            parent_id=self.current_id,
            name=name,
            kind=kind,
            wall_start=time.time(),
            sim_days=sim.days if sim is not None else None,
            attrs=dict(attrs),
        )
        self._stack.append(span)
        start = time.perf_counter()
        try:
            yield span
        finally:
            span.duration_s = time.perf_counter() - start
            self._stack.pop()
            # Append without draining the deferred buffer: a serving
            # loop closing its root span must not pay for span
            # materialization inside the measured region.
            self._spans.append(span)

    def adopt(
        self, spans: Iterable[Span], parent_id: str | None = None
    ) -> None:
        """Graft spans buffered by another tracer into this tree.

        Root spans (``parent_id is None``) are re-parented under
        ``parent_id`` when given, else under the currently open span.
        Non-root spans keep their internal parentage. The donor tracer
        must have used a distinct id prefix.
        """
        graft_parent = parent_id if parent_id is not None else self.current_id
        if self._deferred:
            self._drain()
        for span in spans:
            if span.parent_id is None:
                span.parent_id = graft_parent
            self._spans.append(span)

    def write_jsonl(self, path) -> int:
        """Append every collected span to ``path``; returns span count."""
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_event(), sort_keys=True))
                handle.write("\n")
        return len(self.spans)


def read_jsonl(path) -> list[Span]:
    """Load every span event from a JSONL trace file."""
    spans: list[Span] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                spans.append(Span.from_event(json.loads(line)))
    return spans


__all__ = ["Span", "Tracer", "read_jsonl"]
