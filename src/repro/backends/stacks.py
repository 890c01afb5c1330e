"""The study's concrete backend stacks, assembled from the layer kernel.

Three backends carry the whole measurement pipeline — the live-web
fetch (§3 probes, soft-404 re-fetches), the CDX index (§4.2 sibling
validation, §5.2 coverage census), and the Availability API (IABot's
bounded lookups). This module lifts each onto the
:mod:`repro.backends.core` layers:

- :class:`FetchBackend` — ``cache -> trace -> retry -> Fetcher``,
  memoized on ``(url, at)``: a fetch over the simulated web is a pure
  function of the URL and the instant, so replaying an entry is
  indistinguishable from re-fetching.
- :class:`CdxBackend` — ``cache -> trace -> retry -> CdxApi`` with
  *scope normalization* as the backend's request-rewrite: a DIRECTORY /
  HOST / DOMAIN query is keyed on the derived scope (the directory,
  the hostname, the registrable domain), with ``exclude_self`` applied
  as a post-filter above the cache. Two links in the same directory
  therefore share one backend query even though their ``CdxQuery.url``
  fields differ — which is exactly where the paper's repetition lives.
- :class:`BackendStack` — the deterministic builder: one
  (fault plan, retry policy) pair assembles every stack the study
  needs, replacing the ad-hoc wrapper branching PRs 1-3 accumulated.

Both facades present the read interfaces of the backends they wrap
(``fetch``/``query``/``archived_urls`` plus hit/miss/retry counters),
so every analysis accepts them in place of the raw clients.
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace
from dataclasses import dataclass

from ..archive.cdx import CdxApi, CdxQuery, MatchType
from ..clock import SimTime
from ..faults.inject import faulty_cdx, faulty_fetcher
from ..faults.plan import FaultPlan
from ..net.fetch import FetchResult, Fetcher
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..retry import RetryCounters, RetryPolicy
from ..urls.parse import ParsedUrl, parse_url
from ..urls.psl import default_psl
from .core import (
    MISS,
    CacheLayer,
    Op,
    RetryLayer,
    SpanSpec,
    TraceLayer,
    MetricsLayer,
    validate_stack_order,
)

__all__ = [
    "BackendStack",
    "CdxBackend",
    "FetchBackend",
    "normalize_scope_query",
]

#: Scopes whose candidate set is independent of the query URL itself.
_NORMALIZABLE = (MatchType.DIRECTORY, MatchType.HOST, MatchType.DOMAIN)


def normalize_scope_query(request: CdxQuery) -> CdxQuery | None:
    """A URL-independent base query, or ``None`` when not sharable.

    Limited queries are never normalized: a limit interacts with the
    exclusion filter, so only the verbatim request is safe to memoize.
    Any URL inside a scope derives the same candidate set, and the
    scope's own root URL is one such URL — so it canonically keys the
    memo for every link sharing the scope.
    """
    if request.limit or request.match_type not in _NORMALIZABLE:
        return None
    parsed = parse_url(request.url)
    if request.match_type is MatchType.DIRECTORY:
        scope = parsed.directory
    elif request.match_type is MatchType.HOST:
        scope = f"http://{parsed.host_lower}/"
    else:
        domain = default_psl().registrable_domain(parsed.host_lower)
        scope = f"http://{domain}/"
    return dataclass_replace(request, url=scope, exclude_self=False)


class FetchBackend:
    """The live-web fetch stack: ``cache -> trace -> retry -> base``.

    Replaces the PR-1 ``CachingFetcher``. The §3 soft-404 detector
    re-fetches every 200-status URL the live probe just fetched; with
    the memo (optionally pre-seeded from worker probe results) those
    duplicate fetches never touch the network.

    ``retry_policy`` retries fetch backends that *raise* transiently.
    The standard :class:`~repro.net.fetch.Fetcher` never does — it
    owns its own retry legs and folds failures into the
    :class:`~repro.net.fetch.FetchResult` — so the layer stays inert
    for the common stack; it exists for fetch-shaped backends that
    surface transport errors as exceptions.

    A ``tracer`` records one ``kind="backend.fetch"`` span per memo
    miss — the fetches that actually touched the (simulated) network,
    with the resulting Figure-4 outcome attached. Memo hits are
    deliberately span-free (the trace-below-cache law).
    """

    def __init__(
        self,
        inner: Fetcher,
        retry_policy: RetryPolicy | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.inner = inner
        self.retry_counters = RetryCounters()
        base = Op("net.fetch", lambda req: inner.fetch(req[0], req[1]))
        retry = RetryLayer(
            base,
            policy=retry_policy,
            key_fn=lambda req: f"fetch:{req[0]}@{req[1].days}",
            counters=self.retry_counters,
        )
        trace = TraceLayer(
            retry,
            tracer,
            SpanSpec(
                kind="backend.fetch",
                name_fn=lambda req: "fetch",
                attrs_fn=lambda req: {"sim": req[1], "url": str(req[0])},
                result_attrs_fn=lambda result: {
                    "outcome": result.outcome.value
                },
            ),
            retry_counters=self.retry_counters,
        )
        self._cache = CacheLayer(
            trace,
            key_fn=lambda req: (str(req[0]), req[1].days),
            metrics=metrics,
            metric_prefix="backend.fetch",
        )
        validate_stack_order(self._cache)

    # -- Fetcher interface -------------------------------------------------------

    @property
    def hits(self) -> int:
        """Fetches answered from the memo."""
        return self._cache.hits

    @property
    def misses(self) -> int:
        """Fetches that reached the wrapped backend."""
        return self._cache.misses

    @property
    def fetch_count(self) -> int:
        """Logical fetches served (memo hits included)."""
        return self._cache.hits + self._cache.misses

    @property
    def hit_rate(self) -> float:
        """Share of fetches answered from the memo."""
        return self._cache.hit_rate

    def fetch(self, url: str | ParsedUrl, at: SimTime) -> FetchResult:
        """Same result as the wrapped fetcher, memoized on ``(url, at)``."""
        return self._cache.call((url, at))

    def seed(self, url: str, at: SimTime, result: FetchResult) -> None:
        """Pre-populate the memo with an already-observed result.

        Used by the parallel executor to hand worker probe results to
        the parent process, so follow-up phases hit instead of
        re-fetching. Seeding counts as neither hit nor miss.
        """
        self._cache.seed((str(url), at.days), result)


class CdxBackend:
    """The CDX stack: ``cache -> trace -> retry -> base``, normalized.

    Replaces the PR-1 ``CachingCdxApi``. Presents the same read
    interface (``query``, ``archived_urls``, ``query_count``), so
    every analysis accepts it in place of the raw API. ``hits`` /
    ``misses`` count memo outcomes; each miss is one backend query.

    This stack is also where archive-side resilience lives: the retry
    layer re-issues backend queries that fail transiently (a
    :class:`~repro.errors.CdxRateLimited` window, a 5xx burst from a
    fault-injected backend), and because the cache sits *above* it, a
    masked transient is also a memo entry — one recovery serves every
    repeat of the query (the cache-above-retry law).
    """

    def __init__(
        self,
        inner: CdxApi,
        retry_policy: RetryPolicy | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.inner = inner
        self.retry_counters = RetryCounters()
        base = Op(
            "cdx",
            lambda req: (
                inner.query(req[1])
                if req[0] == "query"
                else inner.archived_urls(req[1])
            ),
        )
        retry = RetryLayer(
            base,
            policy=retry_policy,
            key_fn=lambda req: f"cdx.{req[0]}:{req[1]!r}",
            counters=self.retry_counters,
        )
        trace = TraceLayer(
            retry,
            tracer,
            SpanSpec(
                kind="backend.cdx",
                name_fn=lambda req: (
                    "cdx.query" if req[0] == "query" else "cdx.archived_urls"
                ),
                attrs_fn=lambda req: {
                    "url": req[1].url,
                    "match": req[1].match_type.name,
                },
                set_retries=True,
            ),
            retry_counters=self.retry_counters,
        )
        self._cache = CacheLayer(
            trace,
            key_fn=lambda req: req,
            metrics=metrics,
            metric_prefix="backend.cdx",
        )
        validate_stack_order(self._cache)

    # -- CdxApi interface --------------------------------------------------------

    @property
    def hits(self) -> int:
        """Queries answered from the memo."""
        return self._cache.hits

    @property
    def misses(self) -> int:
        """Queries that reached the wrapped backend."""
        return self._cache.misses

    @property
    def query_count(self) -> int:
        """Logical queries served (memo hits included)."""
        return self._cache.hits + self._cache.misses

    @property
    def hit_rate(self) -> float:
        """Share of queries answered from the memo."""
        return self._cache.hit_rate

    def query(self, request: CdxQuery):
        """Same rows as the wrapped API, memoized under the scope key."""
        base = normalize_scope_query(request)
        if base is None:
            return self._cache.call(("query", request))
        rows = self._cache.call(("query", base))
        if request.exclude_self:
            rows = tuple(row for row in rows if row.url != request.url)
        return rows

    def archived_urls(self, request: CdxQuery):
        """Same collapsed URL list as the wrapped API, memoized."""
        base = normalize_scope_query(request)
        if base is None:
            return self._cache.call(("urls", request))
        urls = self._cache.call(("urls", base))
        if request.exclude_self:
            urls = tuple(url for url in urls if url != request.url)
        return urls


@dataclass(frozen=True)
class BackendStack:
    """Deterministic builder: one resilience posture, every stack.

    Holds the study client's two cross-cutting decisions — which fault
    plan sabotages the backends (``None``: a healthy world) and which
    retry policy arms the clients against transients (``None``: the
    paper's retry-less configuration) — and assembles each concrete
    stack from them, in the canonical layer order. This is the single
    replacement for the ad-hoc wrapper branching that used to live in
    ``Study.from_world`` and the exec layer.
    """

    faults: FaultPlan | None = None
    retry_policy: RetryPolicy | None = None

    def fetcher(self, world) -> Fetcher:
        """The live-web probe client for a generated world.

        Under a plan with active net channels the fetcher's DNS and
        origin legs are wrapped in the plan's injectors (world
        generation itself stays fault-free, so the ground truth is
        shared with a clean run — the differential harness depends on
        that); otherwise the world's own fetcher is used, re-armed
        with the retry policy when one is set.
        """
        if self.faults is not None and self.faults.net_active:
            return faulty_fetcher(
                world.web, self.faults, retry_policy=self.retry_policy
            )
        if self.retry_policy is not None:
            return Fetcher(
                world.web.dns, world.web, retry_policy=self.retry_policy
            )
        return world.fetcher()

    def cdx(self, cdx: CdxApi):
        """The (possibly sabotaged) CDX API for a study."""
        return faulty_cdx(cdx, self.faults) if self.faults is not None else cdx

    def availability(self, api):
        """The (possibly sabotaged) Availability API for a study."""
        from ..faults.inject import faulty_availability

        return (
            faulty_availability(api, self.faults)
            if self.faults is not None
            else api
        )
