"""The study's backend clients: memo, retry, span and fault check in turn.

Three backends carry the whole measurement pipeline — the live-web
fetch (§3 probes, soft-404 re-fetches), the CDX index (§4.2 sibling
validation, §5.2 coverage census), and the Availability API (IABot's
bounded lookups). Each client calls its concerns directly, in the
order its statements run:

- :class:`FetchBackend` — a dict memo on ``(url, at.days)``, then a
  ``backend.fetch`` span around the wrapped
  :class:`~repro.net.fetch.Fetcher` on a miss. A fetch over the
  simulated web is a pure function of the URL and the instant, so
  replaying an entry is indistinguishable from re-fetching. The
  fetcher retries its own DNS and connect legs and folds their
  failures into the :class:`~repro.net.fetch.FetchResult`, so nothing
  above it retries.
- :class:`CdxBackend` — a dict memo, then a ``backend.cdx`` span
  around :func:`~repro.retry.call_with_retry` on a miss, with *scope
  normalization* as the request rewrite: a DIRECTORY / HOST / DOMAIN
  query is keyed on the derived scope (the directory, the hostname,
  the registrable domain), with ``exclude_self`` applied as a
  post-filter above the memo. Two links in the same directory
  therefore share one backend query even though their
  ``CdxQuery.url`` fields differ — which is exactly where the paper's
  repetition lives.
- :class:`BackendStack` — the deterministic builder: one
  (fault plan, retry policy) pair yields every client the study needs.

The memo sits above the retry loop, so a retry-masked transient is
one miss and every repeat of the request is a hit; the span sits
below the memo, so hits open no span. Both facades present the read
interfaces of the clients they wrap (``fetch``/``query``/
``archived_urls`` plus hit/miss/retry counters), so every analysis
accepts them in place of the raw clients.
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace
from dataclasses import dataclass

from ..archive.cdx import CdxApi, CdxQuery, CdxRows, MatchType
from ..clock import SimTime
from ..faults.inject import faulty_availability, faulty_cdx, faulty_fetcher
from ..faults.plan import FaultPlan
from ..net.fetch import FetchResult, Fetcher
from ..obs.trace import Tracer
from ..retry import RetryCounters, RetryPolicy, call_with_retry
from ..urls.parse import ParsedUrl, intern_url
from ..urls.psl import default_psl

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
    parsed = intern_url(request.url)
    if request.match_type is MatchType.DIRECTORY:
        scope = parsed.directory
    elif request.match_type is MatchType.HOST:
        scope = f"http://{parsed.host_lower}/"
    else:
        domain = default_psl().registrable_domain(parsed.host_lower)
        scope = f"http://{domain}/"
    return dataclass_replace(request, url=scope, exclude_self=False)


class FetchBackend:
    """The live-web fetch client, memoized on ``(url, at)``.

    The §3 soft-404 detector re-fetches every 200-status URL the live
    probe just fetched; with the memo (optionally pre-seeded from
    the shards' probe results) those duplicate fetches never touch the
    network.

    A ``tracer`` records one ``kind="backend.fetch"`` span per memo
    miss — the fetches that actually touched the (simulated) network,
    with the resulting Figure-4 outcome and the virtual backoff the
    fetcher's own retries spent. Memo hits are span-free.
    """

    def __init__(self, inner: Fetcher, tracer: Tracer | None = None) -> None:
        self.inner = inner
        self._tracer = tracer
        #: The wrapped fetcher's counters: it retries below the memo,
        #: so this client has none of its own. A fetcher that keeps no
        #: counters reads as zero.
        counters = getattr(inner, "retry_counters", None)
        self.retry_counters = (
            counters if counters is not None else RetryCounters()
        )
        self._memo: dict[tuple[str, float], FetchResult] = {}
        self.hits = 0
        self.misses = 0

    @property
    def fetch_count(self) -> int:
        """Logical fetches served (memo hits included)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Share of fetches answered from the memo."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def fetch(self, url: str | ParsedUrl, at: SimTime) -> FetchResult:
        """Same result as the wrapped fetcher, memoized on ``(url, at)``."""
        key = (str(url), at.days)
        result = self._memo.get(key)
        if result is not None:
            self.hits += 1
            return result
        self.misses += 1
        if self._tracer is None:
            result = self.inner.fetch(url, at)
        else:
            counters = self.retry_counters
            backoff_before = counters.backoff_ms
            with self._tracer.span(
                "fetch", kind="backend.fetch", sim=at, url=key[0]
            ) as span:
                result = self.inner.fetch(url, at)
                span.add_virtual_ms(counters.backoff_ms - backoff_before)
                span.set(outcome=result.outcome.value)
        self._memo[key] = result
        return result

    def seed(self, url: str, at: SimTime, result: FetchResult) -> None:
        """Pre-populate the memo with an already-observed result.

        Used by the executor to hand the shards' probe results to the
        phases that follow, so they hit instead of re-fetching. Seeding counts as neither hit nor miss, and never
        displaces an entry.
        """
        self._memo.setdefault((str(url), at.days), result)


class CdxBackend:
    """The CDX client: memo, span, retry, normalized scope keys.

    Presents the raw API's read interface (``query``,
    ``archived_urls``, ``query_count``), so every analysis accepts it
    in place of the raw API. ``hits`` / ``misses`` count memo
    outcomes; each miss is one backend query.

    This client is also where archive-side resilience lives: the retry
    loop re-issues backend queries that fail transiently (a
    :class:`~repro.errors.CdxRateLimited` window, a 5xx burst from a
    fault-injected backend), and because the memo sits above it, a
    masked transient is also a memo entry — one recovery serves every
    repeat of the query.
    """

    def __init__(
        self,
        inner: CdxApi,
        retry_policy: RetryPolicy | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.inner = inner
        self._retry_policy = retry_policy
        self._tracer = tracer
        self.retry_counters = RetryCounters()
        self._memo: dict[tuple[str, CdxQuery], CdxRows | tuple] = {}
        self.hits = 0
        self.misses = 0

    @property
    def query_count(self) -> int:
        """Logical queries served (memo hits included)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Share of queries answered from the memo."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def _call(self, op: str, request: CdxQuery) -> CdxRows | tuple:
        """One memoized backend read; ``op`` is ``query`` or ``urls``."""
        key = (op, request)
        rows = self._memo.get(key)
        if rows is not None:
            self.hits += 1
            return rows
        self.misses += 1
        if self._tracer is None:
            rows = self._retried(op, request)
        else:
            counters = self.retry_counters
            backoff_before = counters.backoff_ms
            retries_before = counters.retries
            with self._tracer.span(
                "cdx.query" if op == "query" else "cdx.archived_urls",
                kind="backend.cdx",
                url=request.url,
                match=request.match_type.name,
            ) as span:
                rows = self._retried(op, request)
                span.add_virtual_ms(counters.backoff_ms - backoff_before)
                retries = counters.retries - retries_before
                if retries:
                    span.set(retries=retries)
        self._memo[key] = rows
        return rows

    def _retried(self, op: str, request: CdxQuery) -> CdxRows | tuple:
        read = self.inner.query if op == "query" else self.inner.archived_urls
        if self._retry_policy is None:
            return read(request)
        return call_with_retry(
            lambda: read(request),
            self._retry_policy,
            key=f"cdx.{op}:{request!r}",
            counters=self.retry_counters,
        )

    def query(self, request: CdxQuery):
        """Same rows as the wrapped API, memoized under the scope key."""
        base = normalize_scope_query(request)
        if base is None:
            return self._call("query", request)
        rows = self._call("query", base)
        if request.exclude_self:
            rows = rows.where(lambda url, _: url != request.url)
        return rows

    def archived_urls(self, request: CdxQuery):
        """Same collapsed URL list as the wrapped API, memoized."""
        base = normalize_scope_query(request)
        if base is None:
            return self._call("urls", request)
        urls = self._call("urls", base)
        if request.exclude_self:
            urls = tuple(url for url in urls if url != request.url)
        return urls


@dataclass(frozen=True)
class BackendStack:
    """Deterministic builder: one resilience posture, every client.

    Holds the study client's two cross-cutting decisions — which fault
    plan sabotages the backends (``None``: a healthy world) and which
    retry policy arms the clients against transients (``None``: the
    paper's retry-less configuration) — and builds each concrete
    client from them.
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
        return (
            faulty_availability(api, self.faults)
            if self.faults is not None
            else api
        )
