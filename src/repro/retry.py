"""Retry with capped exponential backoff, on a virtual clock.

Real measurement pipelines live in a flakiness regime — resolver
SERVFAILs, archive 5xx bursts, rate-limit windows — and whether they
retry decides whether transient infrastructure failure is (mis)read as
link deadness. This module is the one retry implementation every
client shares: :class:`RetryPolicy` describes a capped-exponential
backoff schedule with a hard total-delay budget, and
:func:`call_with_retry` drives it around any callable.

Nothing here sleeps. Backoff delays are accumulated into
:class:`RetryCounters` (the *virtual* clock) so a study run under
heavy fault injection completes in milliseconds of wall time while
still accounting for every millisecond a real client would have
waited. Delays are deterministic: jitter is derived by hashing the
policy seed, the operation key, and the attempt number through
:func:`repro.rng.derive_seed`, never by consuming shared RNG state —
so a retry schedule is a pure function of ``(policy, key)`` and
replays identically at any shard count.

The zero-retry default (``max_retries=0``) is byte-for-byte the
pre-retry behaviour: the operation runs once and any exception
propagates untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

from .errors import ReproError
from .rng import derive_seed

T = TypeVar("T")

#: 2**64, the denominator turning a hashed 64-bit draw into a unit float.
_UNIT_DENOM = float(2**64)


def is_transient(exc: BaseException) -> bool:
    """Whether an exception is safe to retry.

    Library errors carry a ``transient`` class attribute (see
    :class:`repro.errors.ReproError`); anything else is permanent.
    """
    return isinstance(exc, ReproError) and bool(exc.transient)


@dataclass
class RetryCounters:
    """Mutable accounting for one client's retry activity.

    Attributes:
        retries: individual retry attempts performed.
        giveups: operations abandoned with the fault still standing
            (budget or attempt limit exhausted).
        backoff_ms: total *virtual* backoff delay accumulated — what a
            real client would have spent sleeping.
    """

    retries: int = 0
    giveups: int = 0
    backoff_ms: float = 0.0

    def merge(self, other: "RetryCounters") -> None:
        """Fold another counter set into this one."""
        self.retries += other.retries
        self.giveups += other.giveups
        self.backoff_ms += other.backoff_ms


@dataclass(frozen=True)
class RetryPolicy:
    """A capped-exponential, budgeted backoff schedule.

    Attempt ``i`` (zero-based) waits
    ``min(base_delay_ms * multiplier**i, max_delay_ms)``, shrunk by up
    to ``jitter`` (a fraction in ``[0, 1]``) using a deterministic
    per-``(key, attempt)`` draw. Retrying stops when ``max_retries``
    attempts have been used *or* the next delay would push the total
    virtual wait past ``budget_ms``, whichever bites first.

    ``max_retries=0`` disables retrying entirely — the documented way
    to reproduce pre-retry behaviour exactly.
    """

    max_retries: int = 0
    base_delay_ms: float = 100.0
    multiplier: float = 2.0
    max_delay_ms: float = 5_000.0
    budget_ms: float = 60_000.0
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_delay_ms < 0 or self.max_delay_ms < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        if self.budget_ms < 0:
            raise ValueError("budget_ms must be non-negative")

    @property
    def enabled(self) -> bool:
        """Whether this policy ever retries."""
        return self.max_retries > 0

    def delay_ms(self, key: str, attempt: int) -> float:
        """The backoff delay before retry number ``attempt`` of ``key``."""
        raw = min(
            self.base_delay_ms * self.multiplier**attempt, self.max_delay_ms
        )
        if self.jitter:
            unit = derive_seed(self.seed, f"retry:{key}:{attempt}") / _UNIT_DENOM
            raw *= 1.0 - self.jitter * unit
        return raw

    def schedule(self, key: str) -> tuple[float, ...]:
        """Every delay this policy would grant for ``key``, in order.

        The schedule already honours the budget: its sum never exceeds
        ``budget_ms`` and its length never exceeds ``max_retries``.
        """
        delays: list[float] = []
        spent = 0.0
        for attempt in range(self.max_retries):
            delay = self.delay_ms(key, attempt)
            if spent + delay > self.budget_ms:
                break
            delays.append(delay)
            spent += delay
        return tuple(delays)


def call_with_retry(
    op: Callable[[], T],
    policy: RetryPolicy | None,
    key: str,
    counters: RetryCounters,
    retryable: Callable[[BaseException], bool] | None = None,
) -> T:
    """Run ``op`` under ``policy``, retrying retryable failures.

    Args:
        op: the zero-argument operation (usually a lambda closing over
            the real call).
        policy: the backoff schedule; ``None`` or a disabled policy
            means "call once, propagate everything".
        key: stable identity of the logical operation — it seeds the
            jitter, so the same key replays the same schedule.
        counters: where retries, giveups, and virtual backoff land.
        retryable: predicate deciding which exceptions to retry;
            defaults to :func:`is_transient`.

    Raises:
        whatever ``op`` last raised, once the policy is exhausted or
        the failure is not retryable.
    """
    if policy is None or not policy.enabled:
        return op()
    check = retryable if retryable is not None else is_transient
    attempt = 0
    spent_ms = 0.0
    while True:
        try:
            return op()
        except Exception as exc:
            if not check(exc):
                raise
            if attempt >= policy.max_retries:
                counters.giveups += 1
                raise
            delay = policy.delay_ms(key, attempt)
            if spent_ms + delay > policy.budget_ms:
                counters.giveups += 1
                raise
            spent_ms += delay
            counters.retries += 1
            counters.backoff_ms += delay
            attempt += 1


#: A sensible default for masking the fault plans the test tiers use:
#: deep enough for stacked per-channel faults, generous budget, no
#: jitter (schedules then need no seed coordination across clients).
DEFAULT_MASKING_POLICY = RetryPolicy(
    max_retries=6,
    base_delay_ms=100.0,
    multiplier=2.0,
    max_delay_ms=2_000.0,
    budget_ms=60_000.0,
)


__all__ = [
    "DEFAULT_MASKING_POLICY",
    "RetryCounters",
    "RetryPolicy",
    "call_with_retry",
    "is_transient",
]
