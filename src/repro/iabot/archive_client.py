"""IABot's view of the Wayback Machine.

Two policies the paper pins its §4 findings on live here:

1. **Bounded lookups** — the availability query runs under a timeout;
   no answer in time means the bot proceeds as if no archived copies
   exist ("To operate efficiently at scale, the bot assumes that a
   link was never archived if its attempt to lookup archived copies
   for that link does not complete in a timely manner").
2. **No-redirect copies only** — only snapshots whose *initial* status
   was 200 qualify ("it conservatively links to a page's archived copy
   only if no redirections were encountered when that copy was
   crawled"). The availability API itself implements the 200 filter,
   matching the real API's behaviour.

The retry knob quantifies how much of §4.1 is *recoverable*: with a
:class:`~repro.retry.RetryPolicy`, timed-out or transiently erroring
lookups are repeated (each repeat re-draws the API's latency), trading
virtual wait for coverage — the sweep ``benchmarks/
bench_ablation_timeout.py`` measures. The default (no policy) is the
bot the paper studied: one bounded attempt, give up, move on.
"""

from __future__ import annotations

import math

from ..archive.availability import AvailabilityApi
from ..archive.snapshot import Snapshot
from ..clock import SimTime
from ..errors import ArchiveError, ArchiveTimeout
from ..obs.trace import Tracer
from ..retry import RetryCounters, RetryPolicy, call_with_retry, is_transient


def _lookup_retryable(exc: BaseException) -> bool:
    """Timeouts and transient archive errors are worth repeating."""
    return isinstance(exc, ArchiveTimeout) or is_transient(exc)


class IABotArchiveClient:
    """Bounded closest-copy lookups, optionally retried.

    A ``tracer`` records one ``kind="availability"`` span per lookup,
    carrying the URL, how it resolved (found / none / timeout /
    error), and the API's simulated latency as virtual milliseconds —
    the third backend leg of the study's span hierarchy, next to
    ``backend.fetch`` and ``backend.cdx``.
    """

    def __init__(
        self,
        api: AvailabilityApi,
        timeout_ms: float | None = 5000.0,
        retry_policy: RetryPolicy | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self._api = api
        self._timeout_ms = timeout_ms
        self._retry_policy = retry_policy
        self._tracer = tracer
        self.lookups = 0
        self.timeouts = 0
        self.errors = 0
        self.retry_counters = RetryCounters()

    def find_copy(
        self, url: str, posted_at: SimTime, as_of: SimTime
    ) -> Snapshot | None:
        """The usable archived copy closest to ``posted_at``, if any
        lookup attempt completes in time.

        Only copies captured at or before ``as_of`` count: the archive
        as a sweep at that instant sees it.

        Returns ``None`` when no qualifying copy exists, when every
        allowed attempt times out, and when the API errors transiently
        past the retry budget — all indistinguishable to IABot, which
        is precisely the paper's point.
        """
        if self._tracer is None:
            return self._find_copy(url, posted_at, as_of)
        with self._tracer.span(
            "availability.lookup", kind="availability",
            sim=posted_at, url=url,
        ) as span:
            backoff_before = self.retry_counters.backoff_ms
            snapshot = self._find_copy(url, posted_at, as_of, span)
            span.add_virtual_ms(
                self.retry_counters.backoff_ms - backoff_before
            )
            return snapshot

    def _find_copy(
        self, url: str, posted_at: SimTime, as_of: SimTime, span=None
    ) -> Snapshot | None:
        self.lookups += 1
        # ``before`` is exclusive; ``nextafter`` keeps copies at ``as_of``.
        before = SimTime(math.nextafter(as_of.days, math.inf))
        try:
            result = call_with_retry(
                lambda: self._api.lookup(
                    url, around=posted_at, timeout_ms=self._timeout_ms,
                    before=before,
                ),
                self._retry_policy,
                key=f"availability:{url}",
                counters=self.retry_counters,
                retryable=_lookup_retryable,
            )
        except ArchiveTimeout:
            self.timeouts += 1
            if span is not None:
                span.set(resolved="timeout")
            return None
        except ArchiveError as exc:
            if not is_transient(exc):
                raise
            # A 5xx/429 the budget could not outlast: the bot logs it
            # and proceeds exactly as if the link were never archived.
            self.errors += 1
            if span is not None:
                span.set(resolved="error")
            return None
        if span is not None:
            span.set(
                resolved="found" if result.snapshot is not None else "none"
            )
            span.add_virtual_ms(result.latency_ms)
        return result.snapshot
