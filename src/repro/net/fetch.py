"""A redirect-following HTTP GET client over the simulated network.

This is the probe the whole study rides on. One call resolves DNS,
connects, issues the GET, follows redirects (re-resolving each hop's
hostname), and produces a :class:`FetchResult` carrying the full
response chain plus the Figure-4 outcome classification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

from ..clock import SimTime
from ..errors import ConnectionTimeout, DnsError, UrlError
from ..obs.trace import Tracer
from ..retry import RetryCounters, RetryPolicy, call_with_retry
from ..urls.parse import ParsedUrl, intern_url
from .dns import DnsTable
from .http import HttpRequest, HttpResponse
from .status import Outcome, classify_final_status

DEFAULT_MAX_REDIRECTS = 10


class OriginServer(Protocol):
    """Anything that can answer a GET for a resolved address.

    Implementations may raise :class:`~repro.errors.ConnectionTimeout`
    to model unreachable-but-registered hosts. An answer may carry a
    freshness horizon (``fresh_until`` on the response or the timeout);
    a wrapper that can answer differently from what it wraps must not
    forward it.
    """

    def handle(
        self, address: str, request: HttpRequest, at: SimTime
    ) -> HttpResponse:
        """Serve one GET for the resolved ``address``."""
        ...


@dataclass(frozen=True, slots=True)
class FetchResult:
    """The observable result of fetching one URL at one point in time.

    Attributes:
        url: the URL requested.
        outcome: Figure-4 classification of what happened.
        chain: every HTTP response hop, in order (empty when DNS failed
            or the connection timed out).
        error: transport-level error description, if any.
        fresh_until: the freshness horizon of the whole fetch, as a day
            number: the earliest horizon of any hop, including a
            failing last hop and each hop's DNS answer. A fetch at any
            instant from this one's up to, but excluding, it gives the
            same chain apart from the bodies' noise tokens. ``None``
            (not fetched by a :class:`Fetcher`) vouches for nothing;
            like the hops' stamps it is left out of equality.
    """

    url: str
    outcome: Outcome
    chain: tuple[HttpResponse, ...] = field(default_factory=tuple)
    error: str | None = None
    fresh_until: float | None = field(default=None, compare=False)

    @property
    def initial_status(self) -> int | None:
        """Status before any redirection (None on DNS failure/timeout)."""
        return self.chain[0].status if self.chain else None

    @property
    def final_status(self) -> int | None:
        """Status after all redirections (None on DNS failure/timeout)."""
        return self.chain[-1].status if self.chain else None

    @property
    def final_url(self) -> str | None:
        """The URL that produced the final response."""
        return self.chain[-1].url if self.chain else None

    @property
    def body(self) -> str:
        """Body of the final response (empty on transport failure)."""
        return self.chain[-1].body if self.chain else ""

    @property
    def redirected(self) -> bool:
        """Whether any redirect hop occurred before the final response."""
        return len(self.chain) > 1

    @property
    def ok(self) -> bool:
        """IABot's aliveness criterion: final status 200."""
        return self.final_status == 200

    def describe(self) -> str:
        """One-line summary for logs and examples."""
        if self.error:
            return f"{self.url} -> {self.outcome.value} ({self.error})"
        hops = " -> ".join(str(hop.status) for hop in self.chain)
        return f"{self.url} -> [{hops}] {self.outcome.value}"


class Fetcher:
    """HTTP GET with redirect following over a DNS table and origin fabric.

    Args:
        dns: the simulated DNS table.
        origin: the server fabric (the live web, in practice).
        max_redirects: hop budget before giving up with outcome OTHER.
        retry_policy: backoff schedule for *transient* DNS/connect
            failures (see :mod:`repro.retry`); ``None`` (the default)
            never retries, reproducing the retry-less client exactly.
            Permanent failures — NXDOMAIN, a dead origin — are never
            retried regardless of policy.
        tracer: optional :class:`~repro.obs.trace.Tracer`; when set,
            every fetch records a ``kind="net.fetch"`` span carrying
            the URL, outcome, hop count, and any virtual backoff spent
            on transient retries. ``None`` (the default) leaves the
            hot path untouched.

    Every result is stamped with ``fresh_until``. Only a plain
    :class:`~repro.net.dns.DnsTable` vouches for its DNS answers; over
    any other resolver (a fault wrapper, say) a hop's horizon is the
    fetch instant itself, and so is that of an unstamped response or
    timeout, so such a result is never fresh beyond its own instant.
    """

    def __init__(
        self,
        dns: DnsTable,
        origin: OriginServer,
        max_redirects: int = DEFAULT_MAX_REDIRECTS,
        retry_policy: RetryPolicy | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self._dns = dns
        self._origin = origin
        self._max_redirects = max_redirects
        self._tracer = tracer
        self._fetch_count = 0
        self._dns_next_change = (
            dns.next_change if isinstance(dns, DnsTable) else None
        )
        self.retry_counters = RetryCounters()
        # Both transport legs pool into this fetcher's RetryCounters, so
        # retry/giveup/backoff accounting spans DNS and connect together.
        # A disabled policy is kept as None: the legs then call DNS and
        # the origin directly.
        self._retry_policy = (
            retry_policy
            if retry_policy is not None and retry_policy.enabled
            else None
        )

    @property
    def fetch_count(self) -> int:
        """Number of fetches issued (for efficiency accounting)."""
        return self._fetch_count

    def fetch(self, url: str | ParsedUrl, at: SimTime) -> FetchResult:
        """GET ``url`` at simulated time ``at``, following redirects.

        Malformed URLs yield a DNS_FAILURE outcome (a browser would
        fail to resolve garbage too) rather than raising, so analysis
        loops never crash on a typo'd scheme.
        """
        if self._tracer is None:
            return self._fetch(url, at)
        backoff_before = self.retry_counters.backoff_ms
        with self._tracer.span(
            "fetch", kind="net.fetch", sim=at, url=str(url)
        ) as span:
            result = self._fetch(url, at)
            span.add_virtual_ms(
                self.retry_counters.backoff_ms - backoff_before
            )
            span.set(outcome=result.outcome.value, hops=len(result.chain))
            return result

    def _fetch(self, url: str | ParsedUrl, at: SimTime) -> FetchResult:
        self._fetch_count += 1
        try:
            current = intern_url(url) if isinstance(url, str) else url
        except UrlError as exc:
            # Unparseable now means unparseable forever.
            return FetchResult(
                url=str(url),
                outcome=Outcome.DNS_FAILURE,
                error=str(exc),
                fresh_until=math.inf,
            )
        requested = str(current)
        chain: list[HttpResponse] = []
        seen: set[str] = set()
        policy = self._retry_policy
        dns_next_change = self._dns_next_change
        # Folded over every hop: the earliest instant any answer so far
        # can change. An unstamped answer pins it to ``at`` itself.
        now = at.days
        until = math.inf

        def done(outcome: Outcome, error: str | None = None) -> FetchResult:
            return FetchResult(
                url=requested,
                outcome=outcome,
                chain=tuple(chain),
                error=error,
                fresh_until=until,
            )

        for _ in range(self._max_redirects + 1):
            host = current.host_lower
            if dns_next_change is None:
                until = now
            else:
                until = min(until, dns_next_change(host, at))
            try:
                if policy is None:
                    record = self._dns.resolve(host, at)
                else:
                    record = call_with_retry(
                        lambda: self._dns.resolve(host, at),
                        policy,
                        key=f"dns:{host}",
                        counters=self.retry_counters,
                    )
            except DnsError as exc:
                # After a redirect, a dead hostname leaves the chain so
                # far as the final observable state: neither 200 nor 404.
                return done(
                    Outcome.OTHER if chain else Outcome.DNS_FAILURE, str(exc)
                )
            request = HttpRequest(url=current)
            try:
                if policy is None:
                    response = self._origin.handle(record.address, request, at)
                else:
                    response = call_with_retry(
                        lambda: self._origin.handle(record.address, request, at),
                        policy,
                        key=f"connect:{request.url}",
                        counters=self.retry_counters,
                    )
            except ConnectionTimeout as exc:
                stamp = exc.fresh_until
                until = now if stamp is None else min(until, stamp)
                return done(Outcome.OTHER if chain else Outcome.TIMEOUT, str(exc))
            stamp = response.fresh_until
            until = now if stamp is None else min(until, stamp)
            chain.append(response)
            if not response.is_redirect:
                return done(classify_final_status(response.status))
            target = response.location
            if target in seen or target == str(current):
                # Redirect loop: surface what we have as OTHER.
                return done(Outcome.OTHER, "redirect loop")
            seen.add(str(current))
            try:
                current = intern_url(target)
            except UrlError as exc:
                return done(Outcome.OTHER, f"bad redirect target: {exc}")
        return done(Outcome.OTHER, f"more than {self._max_redirects} redirects")
