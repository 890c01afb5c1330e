"""The backend middleware kernel: one call protocol, composable layers.

Every expensive backend the study touches — the live-web fetch, the
CDX index, the Availability API — is hammered through the same four
cross-cutting concerns: tracing, metrics, exact memoization, and
retry-with-backoff, with deterministic fault injection underneath when
a chaos plan is armed. PRs 1-3 grew a separate hand-written wrapper
family per backend; this module is the single replacement. A backend
is anything satisfying :class:`Backend` — ``call(req) -> resp`` — and
each concern is a :class:`Layer` that wraps a backend and *is* one, so
stacks compose by construction.

Canonical layer order (outermost first)::

    metrics -> cache -> trace -> retry -> fault -> base

and the laws the order encodes (enforced by
:func:`validate_stack_order` and pinned by property tests):

- **cache above retry**: a retry-masked transient is a cache *miss
  exactly once* — the recovery is memoized, so every repeat of the
  request is served without touching the retry loop again;
- **trace below cache**: a span records a call that actually reached
  the backend; memo hits are deliberately span-free (the trace answers
  "where did backend time go", and a hit costs none);
- **retry above fault**: the retry loop must re-enter the fault gate
  so a transient fault can clear on a later attempt;
- **metrics/trace anywhere**: both are observers — permuting them
  never changes a response (a law the property tests replay).

Nothing in this module knows about any concrete backend. Request
identity (cache keys, retry keys, fault keys, span attributes) is
injected per stack as plain functions — see :mod:`repro.backends.stacks`
for the study's three concrete assemblies.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Generic, Protocol, TypeVar, runtime_checkable

from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..retry import RetryCounters, RetryPolicy, call_with_retry

Req = TypeVar("Req")
Resp = TypeVar("Resp")

__all__ = [
    "Backend",
    "CacheLayer",
    "FaultGate",
    "FaultLayer",
    "Layer",
    "MetricsLayer",
    "Op",
    "RetryLayer",
    "SpanSpec",
    "TraceLayer",
    "layer_names",
    "validate_stack_order",
]


@runtime_checkable
class Backend(Protocol[Req, Resp]):
    """Anything that answers one typed request: ``call(req) -> resp``."""

    def call(self, req: Req) -> Resp:
        """Answer one request (may raise; layers decide what that means)."""
        ...


@dataclass
class Op(Generic[Req, Resp]):
    """The base of every stack: a named callable lifted to a Backend."""

    name: str
    fn: Callable[[Req], Resp]
    #: Requests that actually reached this op (the ground-truth count
    #: the cache/retry laws are stated against).
    calls: int = 0

    def call(self, req: Req) -> Resp:
        self.calls += 1
        return self.fn(req)


class Layer(Generic[Req, Resp]):
    """A backend wrapping another backend. Subclasses override call()."""

    #: Short kebab-case layer kind, used by :func:`validate_stack_order`.
    layer_kind = "identity"

    def __init__(self, inner: Backend[Req, Resp]) -> None:
        self.inner = inner

    def call(self, req: Req) -> Resp:
        return self.inner.call(req)


def layer_names(stack: Backend) -> list[str]:
    """Outer-to-inner ``layer_kind`` chain of a composed stack."""
    names: list[str] = []
    current: Any = stack
    while isinstance(current, Layer):
        names.append(current.layer_kind)
        current = current.inner
    names.append("base")
    return names


#: The canonical outer-to-inner order; observers (metrics/trace) may sit
#: anywhere, the behavioural layers must respect this relative order.
_BEHAVIOURAL_ORDER = ("cache", "retry", "fault", "base")


def validate_stack_order(stack: Backend) -> None:
    """Raise ValueError unless the stack respects the canonical order.

    Observer layers (``metrics``, ``trace``) are order-free by law —
    they never change a response — so only the relative order of the
    behavioural layers (cache above retry above fault above base) is
    checked. Duplicate behavioural layers are rejected too: two caches
    or two retry loops in one stack is always a composition mistake.
    """
    behavioural = [
        name
        for name in layer_names(stack)
        if name in _BEHAVIOURAL_ORDER or name not in ("metrics", "trace", "identity")
    ]
    unknown = [n for n in behavioural if n not in _BEHAVIOURAL_ORDER]
    if unknown:
        raise ValueError(f"unknown layer kinds in stack: {unknown}")
    if len(set(behavioural)) != len(behavioural):
        raise ValueError(f"duplicate behavioural layers in stack: {behavioural}")
    ranks = [_BEHAVIOURAL_ORDER.index(name) for name in behavioural]
    if ranks != sorted(ranks):
        raise ValueError(
            "stack violates the canonical layer order "
            f"{' -> '.join(_BEHAVIOURAL_ORDER)}: got {' -> '.join(behavioural)}"
        )


_MISS = object()  # sentinel: distinguishes "absent" from a cached None


class CacheLayer(Layer[Req, Resp]):
    """Exact memoization, optionally bounded (LRU) and aged (TTL).

    The unbounded, TTL-free configuration is the study's exec-layer
    memo: backends there are pure given their request, so replaying an
    entry is indistinguishable from re-calling. ``capacity`` adds LRU
    eviction and ``ttl_ms`` per-entry expiry on a *virtual* clock
    (milliseconds passed by the caller), which is the service-layer
    :class:`~repro.service.cache.ResultCache` configuration — one
    cache implementation, two deployment postures.

    Args:
        inner: the wrapped backend (``None`` for imperative use through
            :meth:`lookup`/:meth:`store` only, as the service does).
        key_fn: request -> hashable cache key (identity when omitted).
        capacity: maximum live entries; ``None`` means unbounded.
        ttl_ms: entry lifetime on the caller's virtual clock; ``None``
            never expires.
        metrics: optional registry mirroring the counters (and a size
            gauge) under ``{metric_prefix}.*``.
    """

    layer_kind = "cache"

    def __init__(
        self,
        inner: Backend[Req, Resp] | None = None,
        key_fn: Callable[[Req], Any] | None = None,
        capacity: int | None = None,
        ttl_ms: float | None = None,
        metrics: MetricsRegistry | None = None,
        metric_prefix: str = "cache",
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        if ttl_ms is not None and ttl_ms <= 0:
            raise ValueError("ttl_ms must be positive (or None)")
        super().__init__(inner)  # type: ignore[arg-type]
        self._key_fn = key_fn if key_fn is not None else lambda req: req
        self.capacity = capacity
        self.ttl_ms = ttl_ms
        self._metrics = metrics
        self._prefix = metric_prefix
        self._entries: OrderedDict[Any, tuple[Any, float]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        return key in self._entries

    @property
    def hit_rate(self) -> float:
        """Share of lookups served from the memo."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def _count(self, name: str) -> None:
        if self._metrics is not None:
            self._metrics.counter(f"{self._prefix}.{name}").inc()

    # -- imperative interface (the service posture) ------------------------------

    def lookup(self, key: Any, now_ms: float = 0.0) -> Any:
        """The stored value for ``key``, or the module MISS sentinel.

        A hit refreshes the key's LRU position (but not its TTL —
        entries age from their store time, so a hot key still ages out
        on schedule).
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            self._count("misses")
            return _MISS
        value, stored_at = entry
        if self.ttl_ms is not None and now_ms - stored_at >= self.ttl_ms:
            del self._entries[key]
            self.expirations += 1
            self._count("expirations")
            self.misses += 1
            self._count("misses")
            return _MISS
        if self.capacity is not None:
            self._entries.move_to_end(key)
        self.hits += 1
        self._count("hits")
        return value

    def store(self, key: Any, value: Any, now_ms: float = 0.0) -> None:
        """Store ``value`` under ``key`` as of ``now_ms``."""
        if self.capacity is not None and key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = (value, now_ms)
        if self.capacity is not None:
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                self._count("evictions")
        if self._metrics is not None:
            self._metrics.gauge(f"{self._prefix}.size").set(len(self._entries))

    def seed(self, key: Any, value: Any) -> None:
        """Pre-populate the memo (counts as neither hit nor miss).

        Used by the parallel executor to hand worker probe results to
        the parent process, so follow-up phases hit instead of
        re-calling the backend. An existing entry is never displaced.
        """
        if key not in self._entries:
            self._entries[key] = (value, 0.0)

    # -- backend interface -------------------------------------------------------

    def call(self, req: Req) -> Resp:
        key = self._key_fn(req)
        value = self.lookup(key)
        if value is _MISS:
            value = self.inner.call(req)
            self.store(key, value)
        return value


#: Public alias for the cache-miss sentinel (imperative callers compare
#: against it; the service's ResultCache maps it back to None).
MISS = _MISS


class RetryLayer(Layer[Req, Resp]):
    """The single home of :func:`repro.retry.call_with_retry`.

    Every retried backend call in the tree goes through an instance of
    this layer; no call site hand-rolls the loop any more. ``counters``
    may be shared (the fetcher's DNS and connect legs pool into one
    :class:`RetryCounters`) or private (one per stack).
    """

    layer_kind = "retry"

    def __init__(
        self,
        inner: Backend[Req, Resp],
        policy: RetryPolicy | None = None,
        key_fn: Callable[[Req], str] | None = None,
        retryable: Callable[[BaseException], bool] | None = None,
        counters: RetryCounters | None = None,
    ) -> None:
        super().__init__(inner)
        self.policy = policy
        self._key_fn = key_fn if key_fn is not None else lambda req: str(req)
        self._retryable = retryable
        self.counters = counters if counters is not None else RetryCounters()

    def call(self, req: Req) -> Resp:
        if self.policy is None or not self.policy.enabled:
            # Exactly call_with_retry's disabled path ("call once,
            # propagate everything"), minus the key formatting and
            # closure frames — the no-retry stack's hot path.
            return self.inner.call(req)
        return call_with_retry(
            lambda: self.inner.call(req),
            self.policy,
            key=self._key_fn(req),
            counters=self.counters,
            retryable=self._retryable,
        )


@dataclass(frozen=True)
class SpanSpec:
    """How one backend's calls render as trace spans.

    Attributes:
        kind: the span kind (``"backend.fetch"``, ``"backend.cdx"``, …).
        name_fn: request -> span name.
        attrs_fn: request -> attributes set at span open (``sim`` is
            special-cased into the span's virtual-clock field).
        result_attrs_fn: response -> attributes set at span close.
        set_retries: attach a ``retries`` attribute when the enclosed
            retry layer retried during this call (CDX contract).
    """

    kind: str
    name_fn: Callable[[Any], str]
    attrs_fn: Callable[[Any], dict] | None = None
    result_attrs_fn: Callable[[Any], dict] | None = None
    set_retries: bool = False


class TraceLayer(Layer[Req, Resp]):
    """One span per call that reaches it — place below the cache.

    Books the *virtual* backoff milliseconds the enclosed retry layer
    accumulated during the call onto the span, so a trace report
    attributes waiting where it happened. With ``tracer=None`` the
    layer is a strict pass-through (the untraced hot path contract).
    """

    layer_kind = "trace"

    def __init__(
        self,
        inner: Backend[Req, Resp],
        tracer: Tracer | None,
        spec: SpanSpec,
        retry_counters: RetryCounters | None = None,
    ) -> None:
        super().__init__(inner)
        self.tracer = tracer
        self.spec = spec
        self._retry_counters = retry_counters

    def call(self, req: Req) -> Resp:
        if self.tracer is None:
            return self.inner.call(req)
        spec = self.spec
        attrs = dict(spec.attrs_fn(req)) if spec.attrs_fn is not None else {}
        sim = attrs.pop("sim", None)
        counters = self._retry_counters
        backoff_before = counters.backoff_ms if counters is not None else 0.0
        retries_before = counters.retries if counters is not None else 0
        with self.tracer.span(
            spec.name_fn(req), kind=spec.kind, sim=sim, **attrs
        ) as span:
            resp = self.inner.call(req)
            if counters is not None:
                span.add_virtual_ms(counters.backoff_ms - backoff_before)
                if spec.set_retries:
                    retries = counters.retries - retries_before
                    if retries:
                        span.set(retries=retries)
            if spec.result_attrs_fn is not None:
                span.set(**spec.result_attrs_fn(resp))
            return resp


class MetricsLayer(Layer[Req, Resp]):
    """Counts calls and errors into a registry — an observer, order-free.

    Counters: ``{prefix}.calls`` per call reaching the layer and
    ``{prefix}.errors`` per call that raised through it.
    """

    layer_kind = "metrics"

    def __init__(
        self,
        inner: Backend[Req, Resp],
        metrics: MetricsRegistry | None,
        prefix: str,
    ) -> None:
        super().__init__(inner)
        self.metrics = metrics
        self.prefix = prefix

    def call(self, req: Req) -> Resp:
        if self.metrics is None:
            return self.inner.call(req)
        self.metrics.counter(f"{self.prefix}.calls").inc()
        try:
            return self.inner.call(req)
        except Exception:
            self.metrics.counter(f"{self.prefix}.errors").inc()
            raise


@dataclass(frozen=True)
class FaultGate:
    """One fault channel's sabotage decision for a stack.

    ``channel`` is duck-typed (anything with ``should_fault(key)``, in
    practice :class:`repro.faults.inject.FaultChannel`); ``key_fn``
    derives the channel's operation key from the request and ``exc_fn``
    builds the exception a sabotaged attempt raises.
    """

    channel: Any
    key_fn: Callable[[Any], str]
    exc_fn: Callable[[Any], BaseException]


class FaultLayer(Layer[Req, Resp]):
    """Deterministic sabotage below retry: gates fire before the base.

    Gates are consulted in order on every attempt — the enclosing
    retry layer re-enters this layer, which is what lets a transient
    channel's per-key attempt counter advance and the fault clear.
    """

    layer_kind = "fault"

    def __init__(
        self, inner: Backend[Req, Resp], gates: tuple[FaultGate, ...]
    ) -> None:
        super().__init__(inner)
        self.gates = gates

    def call(self, req: Req) -> Resp:
        for gate in self.gates:
            if gate.channel.should_fault(gate.key_fn(req)):
                raise gate.exc_fn(req)
        return self.inner.call(req)
