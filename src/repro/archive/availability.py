"""The Wayback Availability API, including its latency tail.

The real API (https://archive.org/help/wayback_api.php) answers "what
is the closest archived copy of this URL (with a 200 status)?" —
exactly the question IABot asks before deciding a link is permanently
dead. The paper's §4.1 finding is that IABot bounds this lookup with a
timeout and treats a late answer as "never archived", so our simulation
gives the API a realistic heavy-tailed response latency: a lookup is a
latency draw plus the result, and callers that pass ``timeout_ms`` get
:class:`~repro.errors.ArchiveTimeout` when the draw exceeds it.

Latency draws are deterministic per (url, attempt number), so a replay
of the same sequence of lookups reproduces the same hits and misses.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from ..clock import SimTime
from ..errors import ArchiveTimeout
from .snapshot import Snapshot
from .store import SnapshotStore


@dataclass(frozen=True, slots=True)
class AvailabilityPolicy:
    """Latency model for availability lookups.

    ``latency = base_ms + Exp(mean=tail_scale_ms)`` — an exponential
    tail over a small base cost. With the defaults, roughly 19% of
    lookups exceed 5,000 ms, in line with the paper's observation that
    IABot's bounded lookups miss a sizeable share of archived copies.
    """

    base_ms: float = 50.0
    tail_scale_ms: float = 3000.0
    seed: str = "availability"

    def latency_ms(self, url: str, attempt: int) -> float:
        """Deterministic latency draw for one lookup."""
        digest = hashlib.sha256(
            f"{self.seed}:{url}:{attempt}".encode("utf-8")
        ).digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64
        # Clamp away from 0 to keep log() finite.
        unit = max(unit, 1e-12)
        return self.base_ms - self.tail_scale_ms * math.log(unit)

    def timeout_probability(self, timeout_ms: float) -> float:
        """P(lookup exceeds ``timeout_ms``) under this model."""
        if timeout_ms <= self.base_ms:
            return 1.0
        return math.exp(-(timeout_ms - self.base_ms) / self.tail_scale_ms)


@dataclass(frozen=True, slots=True)
class AvailabilityResult:
    """A successful lookup: the chosen snapshot and the latency paid."""

    snapshot: Snapshot | None
    latency_ms: float


class AvailabilityApi:
    """Closest-good-copy lookups over a snapshot store."""

    def __init__(
        self, store: SnapshotStore, policy: AvailabilityPolicy | None = None
    ) -> None:
        self._store = store
        self.policy = policy if policy is not None else AvailabilityPolicy()
        self._attempts: dict[str, int] = {}
        self._lookups = 0
        self._timeouts = 0

    @property
    def lookup_count(self) -> int:
        """Total lookups served (including ones that timed out)."""
        return self._lookups

    @property
    def timeout_count(self) -> int:
        """Lookups that exceeded the caller's timeout."""
        return self._timeouts

    def lookup(
        self,
        url: str,
        around: SimTime,
        timeout_ms: float | None = None,
        before: SimTime | None = None,
    ) -> AvailabilityResult:
        """The archived copy of ``url`` with initial status 200 closest
        to ``around``.

        Args:
            url: the URL to look up.
            around: preferred capture instant (IABot passes the date
                the link was added to the article).
            timeout_ms: abandon the lookup when the simulated latency
                exceeds this; ``None`` waits forever (what our study
                client does).
            before: if given, only consider captures strictly before
                this instant (used to reconstruct "what IABot could
                have seen at marking time").

        Raises:
            ArchiveTimeout: when the latency draw exceeds ``timeout_ms``.
        """
        self._lookups += 1
        attempt = self._attempts.get(url, 0)
        self._attempts[url] = attempt + 1
        latency = self.policy.latency_ms(url, attempt)
        if timeout_ms is not None and latency > timeout_ms:
            self._timeouts += 1
            raise ArchiveTimeout(url, timeout_ms)

        # The API's usable-copy rule: initial 200, strictly before
        # ``before``, nearest ``around``; ``min`` keeps the earliest tie.
        hi = math.inf if before is None else before.days
        target = around.days
        best = min(
            (
                (days, observation)
                for days, observation in self._store.captures(url, hi=hi)
                if observation[0] == 200
            ),
            key=lambda pair: abs(pair[0] - target),
            default=None,
        )
        if best is None:
            return AvailabilityResult(snapshot=None, latency_ms=latency)
        days, observation = best
        return AvailabilityResult(
            snapshot=Snapshot(url, SimTime(days), *observation),
            latency_ms=latency,
        )
