"""Exception hierarchy for the repro library.

Every exception raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    ``transient`` marks failures that a retry may cure (an injected
    SERVFAIL, a rate-limit window); retry policies consult it through
    :func:`repro.retry.is_transient`. Permanent failures (NXDOMAIN, a
    genuinely dead origin) keep the default ``False`` so no retry
    budget is ever burned on them.
    """

    transient: bool = False


class ClockError(ReproError):
    """Raised for invalid simulated-time operations (e.g. moving backwards)."""


class UrlError(ReproError):
    """Raised when a URL cannot be parsed or is structurally invalid."""


class NetworkSimError(ReproError):
    """Raised for misconfigured network simulation components."""


class DnsError(NetworkSimError):
    """Raised when DNS resolution fails for a hostname.

    This models NXDOMAIN / SERVFAIL outcomes on the live web; the
    fetcher converts it into a ``DNS_FAILURE`` outcome rather than
    letting it propagate to analysis code.
    """

    def __init__(self, hostname: str, reason: str = "NXDOMAIN") -> None:
        super().__init__(f"DNS resolution failed for {hostname!r}: {reason}")
        self.hostname = hostname
        self.reason = reason


class DnsServfail(DnsError):
    """A *transient* DNS failure (the resolver choked, not the domain).

    Injected by :mod:`repro.faults`; distinguishable from NXDOMAIN so
    retry policies know the lookup is worth repeating. Without retries
    the fetcher classifies it like any DNS failure — exactly how a
    measurement pipeline misreads infrastructure flakiness as deadness.
    """

    transient = True

    def __init__(self, hostname: str) -> None:
        super().__init__(hostname, "SERVFAIL (transient)")


class ConnectionTimeout(NetworkSimError):
    """Raised when TCP/TLS connection setup to a host times out.

    ``fresh_until`` is the freshness horizon of the timeout, as on
    :class:`~repro.net.http.HttpResponse`: the day number before which
    the same request is sure to time out again, or ``None`` when
    nothing vouches for that (an injected fault, a scripted origin).
    """

    def __init__(self, hostname: str, fresh_until: float | None = None) -> None:
        super().__init__(f"connection to {hostname!r} timed out")
        self.hostname = hostname
        self.fresh_until = fresh_until


class TransientConnectionTimeout(ConnectionTimeout):
    """An injected, retryable connection timeout (congestion, not death).

    Subclasses :class:`ConnectionTimeout` so every existing handler
    (the fetcher's TIMEOUT classification, site models) treats it
    identically when no retry policy is in play.
    """

    transient = True


class ArchiveError(ReproError):
    """Base class for web-archive simulation errors."""


class ArchiveTimeout(ArchiveError):
    """Raised when an archive API lookup exceeds the caller's timeout.

    IABot treats this as "no archived copies exist", which is the root
    cause of the paper's Section 4.1 finding.
    """

    def __init__(self, url: str, timeout_ms: float) -> None:
        super().__init__(
            f"availability lookup for {url!r} exceeded {timeout_ms:.0f} ms"
        )
        self.url = url
        self.timeout_ms = timeout_ms


class ArchiveUnavailable(ArchiveError):
    """An archive API answered with a server error (HTTP 5xx).

    Models the Internet Archive's documented load shedding; transient
    by definition — the request itself is fine, the service is not.
    """

    transient = True

    def __init__(self, what: str, status: int = 503) -> None:
        super().__init__(f"archive API returned {status} for {what!r}")
        self.what = what
        self.status = status


class CdxRateLimited(ArchiveUnavailable):
    """A CDX query rejected by a rate-limit window (HTTP 429).

    ``retry_after_ms`` is the server's suggested pause; retry policies
    may ignore it (our backoff schedule is the caller's own), but it is
    surfaced so clients can honour it if they choose.
    """

    def __init__(self, what: str, retry_after_ms: float = 1000.0) -> None:
        super().__init__(what, status=429)
        self.retry_after_ms = retry_after_ms


class WikiError(ReproError):
    """Base class for Wikipedia simulation errors."""


class ArticleNotFound(WikiError):
    """Raised when an article title does not exist in the encyclopedia."""

    def __init__(self, title: str) -> None:
        super().__init__(f"no article titled {title!r}")
        self.title = title


class RevisionError(WikiError):
    """Raised for invalid edit-history operations."""


class EventLogError(WikiError):
    """Raised when the link event log's URL index disagrees with the log."""


class DatasetError(ReproError):
    """Raised when dataset collection or sampling cannot proceed."""


class WorldGenError(ReproError):
    """Raised when a :class:`~repro.dataset.worldgen.WorldConfig` is invalid,
    or when world building reaches a state the plan rules out."""


class LiveError(ReproError):
    """Raised when the live pipeline's ordering invariants are violated.

    The incremental engine's correctness rests on the world only ever
    growing forward: events consumed by a build must post-date the
    previous build, and builds must advance the clock. Violations mean
    a cached outcome can no longer be trusted, so they fail loudly
    instead of folding a stale delta.
    """


class ShardWorkerError(ReproError):
    """Raised when a study worker process dies before its shards return.

    A worker killed mid-shard (out of memory, a segfault, ``os._exit``)
    breaks the whole process pool; instead of blocking on results that
    will never arrive, the executor fails fast with this error.
    ``spans`` lists the ``(start, stop)`` record spans that did not come
    back, in record order.
    """

    def __init__(self, spans) -> None:
        self.spans = tuple(spans)
        lost = ", ".join(f"[{start}, {stop})" for start, stop in self.spans)
        super().__init__(
            f"a study worker process died; shard spans lost: {lost}"
        )
