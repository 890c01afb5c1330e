"""HTTP request/response value types for the simulation.

Responses carry the pieces the study reads: the status code, the
``Location`` header for redirects, and the body text (for soft-404
similarity checks). ``latency_ms`` models server/API response time so
that timeout-sensitive clients (IABot's availability lookups) behave
realistically. A generated page's body is rendered only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..textsim.content import PageText
from ..urls.parse import ParsedUrl, parse_url


@dataclass(frozen=True, slots=True)
class HttpRequest:
    """A GET request for one URL (the only method the study issues)."""

    url: ParsedUrl

    @classmethod
    def get(cls, url: str | ParsedUrl) -> "HttpRequest":
        """Build a GET request from a URL string or ParsedUrl."""
        if isinstance(url, str):
            url = parse_url(url)
        return cls(url=url)


@dataclass(frozen=True, slots=True)
class HttpResponse:
    """One hop of an HTTP exchange.

    Attributes:
        url: the URL this response was served for.
        status: HTTP status code of this hop.
        body: response body text (empty for redirects). The
            constructor also takes a
            :class:`~repro.textsim.content.PageText`, which reading
            the attribute renders; :attr:`content` does not.
        location: redirect target for 3xx responses, else ``None``.
        latency_ms: simulated time-to-first-byte for this hop.
        fresh_until: the freshness horizon, as a day number
            (``SimTime.days``): the origin gives the same answer for
            this URL at every instant from the request's up to, but
            excluding, this one, apart from the body's trailing
            per-request noise token. ``math.inf`` means the answer
            never changes. ``None`` (unstamped) vouches for nothing,
            so the answer is never reused. The stamp is metadata about
            the answer, not part of it, so it is left out of equality.
    """

    url: str
    status: int
    body: str = ""
    location: str | None = None
    latency_ms: float = 50.0
    fresh_until: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not 100 <= self.status <= 599:
            raise ValueError(f"invalid HTTP status {self.status}")
        if self.status in (301, 302, 303, 307, 308) and not self.location:
            raise ValueError(f"redirect response {self.status} needs a location")

    @property
    def content(self) -> str | PageText:
        """The body as constructed, a generated page left unrendered."""
        return _BODY_SLOT.__get__(self)

    @property
    def is_redirect(self) -> bool:
        """3xx with a Location header."""
        return self.location is not None and self.status in (301, 302, 303, 307, 308)

    def describe(self) -> str:
        """Short human-readable form for logs and examples."""
        if self.is_redirect:
            return f"{self.status} -> {self.location}"
        return f"{self.status} ({len(self.body)} bytes)"


_BODY_SLOT = HttpResponse.__dict__["body"]
# Reading ``body`` renders a generated page (``str`` of a ``str`` is
# itself), so equality, hashing and ``repr`` see the text.
HttpResponse.body = property(
    lambda response: str(_BODY_SLOT.__get__(response)), _BODY_SLOT.__set__
)
