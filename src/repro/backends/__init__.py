"""The study's backend clients and their shared entry-point knobs.

The study reads three backends — the live-web fetch, the CDX API and
the Availability API. Each client calls its concerns directly, in
the order its statements run:

- :class:`FetchBackend` (:mod:`.stacks`) memoizes on ``(url,
  at.days)`` and opens a ``backend.fetch`` span on each miss; the
  wrapped :class:`~repro.net.fetch.Fetcher` retries its own DNS and
  connect legs below the memo.
- :class:`CdxBackend` (:mod:`.stacks`) memoizes on the normalized
  scope query and, on a miss, opens a ``backend.cdx`` span around
  :func:`~repro.retry.call_with_retry`.
- :class:`~repro.iabot.archive_client.IABotArchiveClient` retries each
  bounded Availability lookup inside its ``availability`` span and
  memoizes nothing.

Faults sit below every retry loop: the injectors in
:mod:`repro.faults.inject` test their channels on every attempt, so a
transient clears on a later one. :class:`BackendStack` builds the
clients for one (fault plan, retry policy) pair, and
:class:`StackConfig` (:mod:`.config`) carries the shared entry-point
knobs.
"""

from .config import PLAN_FACTORIES, StackConfig
from .stacks import BackendStack, CdxBackend, FetchBackend, normalize_scope_query

__all__ = [
    "BackendStack",
    "CdxBackend",
    "FetchBackend",
    "PLAN_FACTORIES",
    "StackConfig",
    "normalize_scope_query",
]
