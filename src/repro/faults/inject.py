"""Fault injectors: the simulated backends, wrapped and sabotaged.

Each wrapper presents the *same* interface as the component it wraps —
:class:`FaultyDns` resolves like a :class:`~repro.net.dns.DnsTable`,
:class:`FaultyOrigin` serves like an
:class:`~repro.net.fetch.OriginServer`, :class:`FaultyCdxApi` and
:class:`FaultyAvailabilityApi` answer like the archive APIs — so the
whole study pipeline runs unmodified on top of them.

Determinism is the load-bearing design decision. A fault decision is a
pure function of ``(plan seed, channel name, operation key, attempt
index)``: the channel derives a named stream seed via
:func:`repro.rng.derive_seed` (names like ``faults.dns``), then hashes
the operation key through it. No injector consults shared sequential
RNG state, so the fault pattern a key experiences is independent of
how many other operations ran before it or which shard runs it —
which is what lets the differential harness compare serial,
sharded, retried, and retry-less runs of the same plan.

*Transience* is per key: a faulted key fails its first ``depth``
attempts (``depth`` drawn in ``1..max_repeats``) and then clears, so a
retry budget of ``plan.required_retries()`` provably masks every
transient channel. Attempt indices are tracked per injector instance,
and every shard of a run goes through the same instance, so each
key's faults are spent once per run whatever the shard count: a
masked run reports the same measurements and the same retry totals
in one shard or many.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

from ..archive.availability import AvailabilityApi, AvailabilityResult
from ..archive.cdx import CdxApi, CdxQuery, CdxRows
from ..clock import SimTime
from ..errors import (
    ArchiveTimeout,
    ArchiveUnavailable,
    CdxRateLimited,
    ConnectionTimeout,
    DnsServfail,
    TransientConnectionTimeout,
)
from ..net.dns import DnsRecord, DnsTable
from ..net.fetch import DEFAULT_MAX_REDIRECTS, Fetcher, OriginServer
from ..net.http import HttpRequest, HttpResponse
from ..retry import RetryPolicy
from ..rng import derive_seed
from .plan import FaultPlan, FaultSpec

_UNIT_DENOM = float(2**64)


class FaultChannel:
    """Deterministic per-key fault decisions for one channel.

    ``should_fault(key)`` is called once per attempt at the wrapped
    operation; it bumps the key's attempt counter and reports whether
    this attempt is sabotaged. ``injected`` counts faults actually
    raised (for accounting and tests).
    """

    def __init__(self, plan_seed: int, name: str, spec: FaultSpec) -> None:
        self.name = name
        self.spec = spec
        self._stream_seed = derive_seed(plan_seed, f"faults.{name}")
        self._attempts: dict[str, int] = {}
        self.injected = 0

    def _unit(self, key: str, salt: str) -> float:
        digest = hashlib.sha256(
            f"{self._stream_seed}:{salt}:{key}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "big") / _UNIT_DENOM

    def depth(self, key: str) -> int:
        """How many leading attempts at ``key`` this channel faults.

        ``0`` for unfaulted keys; effectively unbounded for permanent
        channels. Pure — safe to call for prediction in tests.
        """
        if not self.spec.active or self._unit(key, "hit") >= self.spec.rate:
            return 0
        if self.spec.permanent:
            return 1 << 30
        span = self.spec.max_repeats
        return 1 + min(int(self._unit(key, "depth") * span), span - 1)

    def should_fault(self, key: str) -> bool:
        """Record one attempt at ``key``; True when it must fail."""
        if not self.spec.active:
            return False
        attempt = self._attempts.get(key, 0)
        self._attempts[key] = attempt + 1
        if attempt < self.depth(key):
            self.injected += 1
            return True
        return False


class FaultyDns:
    """A DNS table whose resolver transiently SERVFAILs.

    Fault keys are the hostname being resolved, so every URL on a
    flagged host shares the blip — like a real resolver cache entry
    going bad — and the decision replays identically wherever the
    first lookup happens. It is not a :class:`DnsTable`, so fetches
    through it carry no freshness beyond their own instant.
    """

    def __init__(self, inner: DnsTable, plan: FaultPlan) -> None:
        self._inner = inner
        self.channel = FaultChannel(plan.seed, "dns", plan.dns_servfail)

    def resolve(self, hostname: str, at: SimTime) -> DnsRecord:
        """Resolve like the wrapped table, unless sabotaged."""
        if self.channel.should_fault(hostname.lower()):
            raise DnsServfail(hostname)
        return self._inner.resolve(hostname, at)

    def hostnames(self) -> list[str]:
        return self._inner.hostnames()

    def records_for(self, hostname: str) -> tuple[DnsRecord, ...]:
        return self._inner.records_for(hostname)


class FaultyOrigin:
    """An origin fabric whose connections transiently time out.

    Fault keys are the requested URL string, so one flaky page does
    not condemn its whole site and decisions replay identically
    whichever shard fetches the page first.
    """

    def __init__(self, inner: OriginServer, plan: FaultPlan) -> None:
        self._inner = inner
        self.channel = FaultChannel(plan.seed, "connect", plan.connect_timeout)

    def handle(
        self, address: str, request: HttpRequest, at: SimTime
    ) -> HttpResponse:
        """Serve like the wrapped fabric, unless sabotaged.

        The wrapped fabric's freshness horizons are dropped: the next
        attempt at a key may be faulted differently, so this wrapper
        vouches for no answer beyond its own instant.
        """
        if self.channel.should_fault(str(request.url)):
            raise TransientConnectionTimeout(request.url.host_lower)
        try:
            response = self._inner.handle(address, request, at)
        except ConnectionTimeout as exc:
            exc.fresh_until = None
            raise
        # ``content``, not ``body``: the copy leaves a page unrendered.
        return replace(response, body=response.content, fresh_until=None)


class FaultyCdxApi:
    """A CDX server with 5xx bursts and rate-limit windows.

    Presents the full read interface (``query``, ``archived_urls``,
    ``query_count``), so the memoizing
    :class:`~repro.backends.stacks.CdxBackend` — which owns the retry
    policy — stacks directly on top.
    """

    def __init__(self, inner: CdxApi, plan: FaultPlan) -> None:
        self._inner = inner
        self._retry_after_ms = plan.cdx_retry_after_ms
        self.rate_limit_channel = FaultChannel(
            plan.seed, "cdx.rate_limit", plan.cdx_rate_limit
        )
        self.error_channel = FaultChannel(plan.seed, "cdx.error", plan.cdx_error)

    def _gate(self, key: str) -> None:
        """Raise when an attempt at ``key`` is sabotaged.

        The rate-limit channel's attempt counter always advances, the
        error channel's only when no rate limit fired.
        """
        if self.rate_limit_channel.should_fault(key):
            raise CdxRateLimited(key, retry_after_ms=self._retry_after_ms)
        if self.error_channel.should_fault(key):
            raise ArchiveUnavailable(key)

    @property
    def query_count(self) -> int:
        """Queries answered by the wrapped API (faulted attempts excluded)."""
        return self._inner.query_count

    @property
    def injected(self) -> int:
        """Total faults raised across both channels."""
        return self.rate_limit_channel.injected + self.error_channel.injected

    def query(self, request: CdxQuery) -> CdxRows:
        """Rows from the wrapped API, gated by the fault channels."""
        self._gate(f"query:{request!r}")
        return self._inner.query(request)

    def archived_urls(self, request: CdxQuery) -> tuple[str, ...]:
        """Collapsed URLs from the wrapped API, gated by the channels."""
        self._gate(f"urls:{request!r}")
        return self._inner.archived_urls(request)


class FaultyAvailabilityApi:
    """An Availability API with 5xx bursts and latency spikes.

    A spiked lookup pays ``plan.availability_spike_ms`` on top of the
    policy's own latency draw; bounded callers then see
    :class:`~repro.errors.ArchiveTimeout` exactly as they would under
    real load. Timeout enforcement moves into this wrapper (the inner
    lookup runs patient) so the spike participates in the comparison.
    """

    def __init__(self, inner: AvailabilityApi, plan: FaultPlan) -> None:
        self._inner = inner
        self._spike_ms = plan.availability_spike_ms
        self.error_channel = FaultChannel(
            plan.seed, "availability.error", plan.availability_error
        )
        self.spike_channel = FaultChannel(
            plan.seed, "availability.spike", plan.availability_spike
        )
        self._timeouts = 0

    @property
    def lookup_count(self) -> int:
        """Lookups that reached the wrapped API."""
        return self._inner.lookup_count

    @property
    def timeout_count(self) -> int:
        """Bounded lookups this wrapper timed out (spiked or not)."""
        return self._timeouts

    @property
    def injected(self) -> int:
        """Total faults raised across both channels."""
        return self.error_channel.injected + self.spike_channel.injected

    @property
    def policy(self):
        """The wrapped API's latency policy (read-through)."""
        return self._inner.policy

    def lookup(
        self,
        url: str,
        around: SimTime,
        timeout_ms: float | None = None,
        before: SimTime | None = None,
    ) -> AvailabilityResult:
        """Look up like the wrapped API, spiked and gated."""
        if self.error_channel.should_fault(url):
            raise ArchiveUnavailable(url)
        spike = (
            self._spike_ms if self.spike_channel.should_fault(url) else 0.0
        )
        result = self._inner.lookup(url, around, timeout_ms=None, before=before)
        latency = result.latency_ms + spike
        if timeout_ms is not None and latency > timeout_ms:
            self._timeouts += 1
            raise ArchiveTimeout(url, timeout_ms)
        return AvailabilityResult(snapshot=result.snapshot, latency_ms=latency)


# -- composition helpers -----------------------------------------------------------


def faulty_fetcher(
    web,
    plan: FaultPlan,
    retry_policy: RetryPolicy | None = None,
    max_redirects: int = DEFAULT_MAX_REDIRECTS,
) -> Fetcher:
    """A live-web GET client whose DNS and connections misbehave.

    ``web`` is anything with a ``dns`` table that also implements the
    origin protocol (in practice :class:`~repro.web.world.LiveWeb`).
    The returned fetcher owns its injector state, so two fetchers from
    the same plan replay the same faults independently.
    """
    return Fetcher(
        FaultyDns(web.dns, plan),
        FaultyOrigin(web, plan),
        max_redirects=max_redirects,
        retry_policy=retry_policy,
    )


def faulty_cdx(cdx: CdxApi, plan: FaultPlan) -> FaultyCdxApi | CdxApi:
    """Wrap a CDX API under ``plan``, or pass it through untouched.

    Returns the raw API when no CDX channel is active, so callers can
    apply a plan unconditionally without paying a wrapper layer.
    """
    return FaultyCdxApi(cdx, plan) if plan.cdx_active else cdx


def faulty_availability(
    api: AvailabilityApi, plan: FaultPlan
) -> FaultyAvailabilityApi | AvailabilityApi:
    """Wrap an Availability API under ``plan``, or pass it through."""
    return FaultyAvailabilityApi(api, plan) if plan.availability_active else api
