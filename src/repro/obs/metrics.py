"""A small, exact, fold-friendly metrics registry.

The study pipeline runs the same logical work whether it executes as
one shard or many, and its accounting must say so: every counter in
this module folds by plain addition, every histogram by bucket-wise
addition, so the executor can merge the registries its shards
buffered and end up with *exactly* the numbers a one-shard run would
have produced (for shape-independent metrics) or exactly the sum of
what every shard did (for shape-dependent ones).

Three instrument types:

- :class:`Counter` — a monotonically increasing float total;
- :class:`Gauge` — a last-written value (shard counts, shard wall
  extrema — things that are *states*, not totals);
- :class:`Histogram` — fixed, deterministic bucket bounds chosen at
  registration time, so two processes observing into histograms of the
  same name always produce mergeable bucket vectors.

Nothing here is thread-safe by design: each shard owns its registry
and folding happens at well-defined merge points (the executor's
shard-result loop), mirroring how the retry-counter deltas already
flow.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from dataclasses import dataclass, field
from math import ceil

#: Default histogram bounds for wall-clock latencies, in seconds.
#: Roughly logarithmic from 0.5 ms to 30 s — wide enough for a single
#: record stage at the bottom and a full study phase at the top.
DEFAULT_LATENCY_BOUNDS_S: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: Default histogram bounds for *virtual* service latencies, in
#: milliseconds. Dense through the single-digit-ms range one index
#: lookup lives in (base cost ~4 ms × a [0.5, 1.5) key multiplier plus
#: a ≤2 ms batch wait), so service-tier p50 and p99 resolve to
#: different buckets instead of all landing in one coarse
#: seconds-scale bin; logarithmic above that out to the overload and
#: chaos tails.
DEFAULT_LATENCY_BOUNDS_MS: tuple[float, ...] = (
    0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.5, 8.0, 10.0, 15.0, 25.0,
    50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 10_000.0,
)

#: How many exemplars each histogram bucket retains by default.
DEFAULT_EXEMPLAR_CAPACITY = 2

_RANK_DENOM = float(2**64)


@dataclass(frozen=True, slots=True)
class Exemplar:
    """One concrete observation a histogram bucket can point back to.

    Exemplars link a latency bucket to the request / trace / replica
    that produced one of its observations (``key`` is a free-form
    identity string like ``"rid=1024|replica=s0r1"``). Retention is a
    **deterministic, hash-keyed reservoir**: each bucket keeps the
    ``exemplar_capacity`` exemplars whose ``rank`` — a pure hash of
    ``key`` — is smallest. No wall clock, no RNG, no arrival-order
    dependence: the same observation set produces the same exemplar
    set in any order, and merging histograms is a union-then-trim that
    commutes exactly (the same property the bucket counts have).
    """

    value: float
    key: str
    at_ms: float | None = None
    #: The reservoir priority: a pure uniform hash of ``key``,
    #: computed once at construction (it is consulted on every
    #: reservoir comparison, so recomputing the digest per access
    #: would dominate the retention cost).
    rank: float = field(init=False, compare=False, repr=False, default=0.0)

    def __post_init__(self) -> None:
        digest = hashlib.sha256(self.key.encode("utf-8")).digest()
        object.__setattr__(
            self, "rank", int.from_bytes(digest[:8], "big") / _RANK_DENOM
        )

    def to_dict(self) -> dict:
        """JSON-ready rendering (snapshot / exposition formats)."""
        event: dict = {"value": self.value, "key": self.key}
        if self.at_ms is not None:
            event["at_ms"] = self.at_ms
        return event


def _sort_key(exemplar: Exemplar) -> tuple:
    return (exemplar.rank, exemplar.key, exemplar.value)


def histogram_quantile(
    bounds: tuple[float, ...] | list[float],
    counts: list[int] | tuple[int, ...],
    q: float,
) -> float:
    """Estimate the ``q``-quantile from fixed-bound bucket counts.

    The Prometheus ``histogram_quantile`` estimator, exactly: find the
    bucket holding the ceil-ranked observation and interpolate
    linearly inside it (the first bucket's lower edge is 0 — latency
    histograms have no negative mass). Observations in the overflow
    bucket clamp to the last bound: the histogram cannot resolve
    beyond it. Works on live :class:`Histogram` state and on plain
    snapshot data alike, which is how the SLO reporter estimates
    percentiles from an exported metrics file.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = max(1, ceil(q * total))
    cumulative = 0
    for index, count in enumerate(counts):
        previous = cumulative
        cumulative += count
        if cumulative >= rank:
            if index >= len(bounds):
                return float(bounds[-1])
            lower = float(bounds[index - 1]) if index > 0 else 0.0
            upper = float(bounds[index])
            return lower + (upper - lower) * (rank - previous) / count
    return float(bounds[-1])


@dataclass
class Counter:
    """A named, add-only total. Folds across processes by summation."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be fractional, e.g. seconds)."""
        self.value += amount

    @property
    def int_value(self) -> int:
        """The value as an int, for counters that only ever count."""
        return int(self.value)


@dataclass
class Gauge:
    """A named last-written value. Merging keeps the incoming value."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = float(value)


@dataclass
class Histogram:
    """Fixed-bound histogram; bucket ``i`` counts values ``<= bounds[i]``.

    The final bucket (index ``len(bounds)``) is the overflow bucket.
    Bounds are part of the histogram's identity: merging histograms
    with different bounds is a registration error, not a runtime
    guess, which is what keeps cross-process folds exact.
    """

    name: str
    bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS_S
    counts: list[int] = field(default_factory=list)
    count: int = 0
    sum: float = 0.0
    #: Backing store for :attr:`exemplars` — read through the
    #: property, which folds in buffered offers first.
    _exemplars: dict[int, list[Exemplar]] = field(
        default_factory=dict, repr=False, compare=False
    )
    exemplar_capacity: int = DEFAULT_EXEMPLAR_CAPACITY
    #: Deferred exemplar offers: (value, key, at_ms) tuples buffered
    #: by :meth:`observe` and folded into the reservoirs lazily by
    #: :meth:`flush_exemplars`. Tagging an observation on the serving
    #: hot path then costs one tuple append; the hash ranking and
    #: reservoir trim run when the exemplars are *read* (snapshot,
    #: merge, exposition), off the measured path.
    _pending_exemplars: list[tuple] = field(
        default_factory=list, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    @property
    def exemplars(self) -> dict[int, list[Exemplar]]:
        """Per-bucket exemplar reservoirs (bucket index -> kept
        exemplars, sorted by rank). Reading folds in any buffered
        offers, so callers always see the converged reservoir."""
        if self._pending_exemplars:
            self.flush_exemplars()
        return self._exemplars

    def observe(
        self,
        value: float,
        exemplar: str | None = None,
        at_ms: float | None = None,
    ) -> None:
        """Record one observation, optionally tagged with an exemplar.

        ``exemplar`` is the identity string the bucket should point
        back to (request id, trace id, replica); ``at_ms`` is the
        virtual instant, when one applies. Retention is the
        deterministic hash reservoir documented on :class:`Exemplar`;
        the offer is buffered and folded in lazily, so reading
        exemplar state goes through :meth:`flush_exemplars` (which
        every consumer — snapshot, merge, exposition — calls).
        """
        bucket = bisect_left(self.bounds, value)
        self.counts[bucket] += 1
        self.count += 1
        self.sum += value
        if exemplar is not None:
            self._pending_exemplars.append((value, exemplar, at_ms))

    def offer_exemplar(
        self, value: float, key: str, at_ms: float | None = None
    ) -> None:
        """Offer an exemplar for an observation already counted.

        The serving tier counts observations inline but attributes
        them (request id, replica) in a deferred pass; this is that
        pass's entry point — it buffers the offer exactly like
        :meth:`observe` with ``exemplar=`` does, without touching the
        bucket counts again.
        """
        self._pending_exemplars.append((value, key, at_ms))

    def flush_exemplars(self) -> None:
        """Fold every buffered exemplar offer into the reservoirs.

        The reservoir is order-independent (smallest hash ranks win),
        so deferral never changes the retained set — only when the
        ranking work happens.
        """
        if not self._pending_exemplars:
            return
        pending, self._pending_exemplars = self._pending_exemplars, []
        bounds = self.bounds
        for value, key, at_ms in pending:
            self._offer_exemplar(
                bisect_left(bounds, value),
                Exemplar(value=value, key=key, at_ms=at_ms),
            )

    def _offer_exemplar(self, bucket: int, candidate: Exemplar) -> None:
        reservoir = self._exemplars.get(bucket)
        if reservoir is None:
            reservoir = self._exemplars[bucket] = []
        elif len(reservoir) >= self.exemplar_capacity and _sort_key(
            candidate
        ) >= _sort_key(reservoir[-1]):
            return
        reservoir.append(candidate)
        reservoir.sort(key=_sort_key)
        del reservoir[self.exemplar_capacity:]

    @property
    def mean(self) -> float:
        """Mean observation (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (see :func:`histogram_quantile`)."""
        return histogram_quantile(self.bounds, self.counts, q)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram of the same shape into this one."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge bounds "
                f"{other.bounds!r} into {self.bounds!r}"
            )
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.count += other.count
        self.sum += other.sum
        self.flush_exemplars()
        other.flush_exemplars()
        for bucket, incoming in other.exemplars.items():
            for candidate in incoming:
                self._offer_exemplar(bucket, candidate)


class MetricsRegistry:
    """All of one process's instruments, created on first touch.

    ``counter(name)`` / ``gauge(name)`` / ``histogram(name)`` return
    the live instrument (creating it if needed), so call sites never
    pre-register. :meth:`merge` folds another registry in exactly;
    :meth:`snapshot` renders plain JSON-ready data.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        #: Deferred-telemetry hooks (see :meth:`add_pending_source`).
        self._pending_sources: list = []

    def add_pending_source(self, source) -> None:
        """Register a callable that backfills deferred telemetry.

        The serving tier buffers its observation log during a replay
        and expands it (exemplar offers, spans, audit records) only
        when telemetry is read. Registering the expansion here makes
        :meth:`snapshot` self-sufficient: the first snapshot runs
        every pending source once, so exposition always sees the
        backfilled exemplars no matter which artifact is read first.
        """
        self._pending_sources.append(source)

    def run_pending_sources(self) -> None:
        """Run and clear every registered deferred-telemetry hook."""
        if self._pending_sources:
            sources, self._pending_sources = self._pending_sources, []
            for source in sources:
                source()

    # -- instrument access -------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created at zero if new."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created at zero if new."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, bounds: tuple[float, ...] | None = None
    ) -> Histogram:
        """The histogram called ``name``; ``bounds`` only bind on creation."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                name, bounds if bounds is not None else DEFAULT_LATENCY_BOUNDS_S
            )
        return instrument

    # -- bulk views --------------------------------------------------------------

    def counters(self, prefix: str = "", sort: bool = True) -> dict[str, float]:
        """Counter values whose names start with ``prefix``.

        Sorted by name by default; ``sort=False`` keeps creation order
        (which is how phase timings preserve execution order).
        """
        items = sorted(self._counters.items()) if sort else self._counters.items()
        return {
            name: c.value for name, c in items if name.startswith(prefix)
        }

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry in: counters and histograms add,
        gauges take the incoming value."""
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            self.gauge(name).set(gauge.value)
        for name, histogram in other._histograms.items():
            self.histogram(name, histogram.bounds).merge(histogram)

    def merge_prefixed(self, other: "MetricsRegistry", prefix: str) -> None:
        """Fold another registry in under a name prefix, exactly.

        Same fold semantics as :meth:`merge` — counters and histograms
        add, gauges take the incoming value — but every incoming
        instrument lands at ``prefix + name``. This is how the cluster
        tier publishes per-replica metric families
        (``service.replica.<rid>.…``) next to the fleet-wide rollup it
        gets from a plain :meth:`merge` of the same registries: the
        rollup totals are then, by construction, the exact sums of the
        per-replica families.
        """
        for name, counter in other._counters.items():
            self.counter(prefix + name).inc(counter.value)
        for name, gauge in other._gauges.items():
            self.gauge(prefix + name).set(gauge.value)
        for name, histogram in other._histograms.items():
            self.histogram(prefix + name, histogram.bounds).merge(histogram)

    def snapshot(self) -> dict:
        """Plain-data rendering of every instrument (JSON-ready)."""
        self.run_pending_sources()
        return {
            "counters": {
                name: c.value for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.value for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: _histogram_snapshot(h)
                for name, h in sorted(self._histograms.items())
            },
        }


def _histogram_snapshot(histogram: Histogram) -> dict:
    """One histogram as plain data; exemplars only when present, so
    exemplar-free snapshots are byte-identical to what they were
    before exemplars existed."""
    histogram.flush_exemplars()
    data: dict = {
        "bounds": list(histogram.bounds),
        "counts": list(histogram.counts),
        "count": histogram.count,
        "sum": histogram.sum,
    }
    if histogram.exemplars:
        data["exemplars"] = {
            str(bucket): [exemplar.to_dict() for exemplar in kept]
            for bucket, kept in sorted(histogram.exemplars.items())
        }
    return data


__all__ = [
    "DEFAULT_EXEMPLAR_CAPACITY",
    "DEFAULT_LATENCY_BOUNDS_MS",
    "DEFAULT_LATENCY_BOUNDS_S",
    "Counter",
    "Exemplar",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "histogram_quantile",
]
