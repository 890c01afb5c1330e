"""URL parsing exactly as the paper defines it.

Section 2.4: *"We extract the hostname from any particular URL as the
portion of the URL between the protocol (i.e., 'http://' or 'https://')
and the first '/' thereafter."* Directory membership (§4.2, §5.2) is
defined as *"share the same URL prefix until the last '/'"*.

We implement a small, strict parser rather than using ``urllib`` so
that the semantics match the paper's definitions precisely and so that
malformed URLs (the typos in §5) behave the same way they do on the
live web: as requestable-but-broken strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import UrlError

_SCHEMES = ("http", "https")


@dataclass(frozen=True, slots=True)
class ParsedUrl:
    """A decomposed URL.

    Attributes:
        scheme: ``http`` or ``https``.
        hostname: everything between ``://`` and the first ``/`` (may
            include a port; the paper's definition keeps it).
        path: from the first ``/`` up to but excluding ``?``; always
            begins with ``/``.
        query: everything after the first ``?`` (empty if none).
        host_lower: hostname lowercased, port stripped — for DNS and
            PSL lookups (derived, computed once at construction).
    """

    scheme: str
    hostname: str
    path: str = "/"
    query: str = ""
    host_lower: str = field(init=False, repr=False, compare=False)
    _text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.scheme not in _SCHEMES:
            raise UrlError(f"unsupported scheme {self.scheme!r}")
        if not self.hostname:
            raise UrlError("empty hostname")
        if not self.path.startswith("/"):
            raise UrlError(f"path must start with '/', got {self.path!r}")
        host = self.hostname.lower()
        if ":" in host:
            host = host.split(":", 1)[0]
        object.__setattr__(self, "host_lower", host)
        text = f"{self.scheme}://{self.hostname}{self.path}"
        if self.query:
            text += f"?{self.query}"
        object.__setattr__(self, "_text", text)

    @property
    def directory(self) -> str:
        """The URL prefix up to and including the last '/' of the path.

        This is the paper's directory notion: two URLs are "in the same
        directory" iff their prefixes until the last '/' are equal.
        The query string never contributes to the directory.
        """
        last_slash = self.path.rfind("/")
        return f"{self.scheme}://{self.hostname}{self.path[: last_slash + 1]}"

    @property
    def leaf(self) -> str:
        """Everything after the last '/' of the path, plus the query.

        This is the part replaced by a random string when probing for
        soft-404s (§3).
        """
        last_slash = self.path.rfind("/")
        tail = self.path[last_slash + 1:]
        if self.query:
            return f"{tail}?{self.query}"
        return tail

    @property
    def site_root(self) -> str:
        """``scheme://hostname/`` — the site's homepage URL."""
        return f"{self.scheme}://{self.hostname}/"

    def with_leaf(self, leaf: str) -> "ParsedUrl":
        """A sibling URL in the same directory with a different leaf."""
        query = ""
        path_leaf = leaf
        if "?" in leaf:
            path_leaf, query = leaf.split("?", 1)
        last_slash = self.path.rfind("/")
        return ParsedUrl(
            scheme=self.scheme,
            hostname=self.hostname,
            path=self.path[: last_slash + 1] + path_leaf,
            query=query,
        )

    def __str__(self) -> str:
        return self._text


def parse_url(url: str) -> ParsedUrl:
    """Parse ``url`` into a :class:`ParsedUrl`.

    Raises :class:`~repro.errors.UrlError` for strings without an
    ``http(s)://`` prefix or without a hostname. Everything else —
    including URLs with typos in the path or query — parses fine, just
    as a browser would happily issue a request for them.
    """
    if not isinstance(url, str):
        raise UrlError(f"url must be a string, got {type(url)!r}")
    lowered = url.lower()
    for scheme in _SCHEMES:
        prefix = f"{scheme}://"
        if lowered.startswith(prefix):
            rest = url[len(prefix):]
            break
    else:
        raise UrlError(f"url must start with http:// or https://: {url!r}")
    if not rest:
        raise UrlError(f"url has no hostname: {url!r}")
    slash = rest.find("/")
    if slash == -1:
        hostname, path_and_query = rest, "/"
    else:
        hostname, path_and_query = rest[:slash], rest[slash:]
    if not hostname:
        raise UrlError(f"url has no hostname: {url!r}")
    if "?" in path_and_query:
        path, query = path_and_query.split("?", 1)
    else:
        path, query = path_and_query, ""
    return ParsedUrl(scheme=scheme, hostname=hostname, path=path, query=query)


#: Entry bound of the URL memo behind :func:`intern_url`. A world's
#: replay sees about 5,000 distinct URLs per thousand links (115,000
#: at 26,000 links), so one world stays below it; it exists so that a
#: long-lived process fed unknown URLs cannot grow the memo without
#: limit. Parsing is pure, so clearing the memo never changes a result.
URL_MEMO_MAX = 1 << 18

#: The URL memo: ``url string -> its parse``.
_interned: dict[str, ParsedUrl] = {}


def intern_url(url: str) -> ParsedUrl:
    """``parse_url(url)``, parsed once per URL string and shared.

    The crawl frontier, the crawler, the fetcher and the archive all
    read each URL of a world's replay many times; they share this one
    parse (one memo per process, like the token-hash memo in
    :mod:`repro.textsim.shingles`). Malformed URLs are not memoised:
    they raise :class:`~repro.errors.UrlError` on every call, as
    :func:`parse_url` does.
    """
    parsed = _interned.get(url)
    if parsed is None:
        parsed = parse_url(url)
        if len(_interned) >= URL_MEMO_MAX:
            _interned.clear()
        _interned[url] = parsed
    return parsed


def hostname_of(url: str) -> str:
    """The paper's hostname extraction, lowercased and without a port."""
    return intern_url(url).host_lower


def directory_prefix(url: str) -> str:
    """The paper's directory prefix: everything until the last '/'."""
    return intern_url(url).directory


def normalize(url: str) -> str:
    """Canonical string form: lowercased scheme+hostname, path untouched.

    Paths and queries are case-sensitive on the live web, so only the
    authority is normalised.
    """
    parsed = parse_url(url)
    return str(
        ParsedUrl(
            scheme=parsed.scheme,
            hostname=parsed.hostname.lower(),
            path=parsed.path,
            query=parsed.query,
        )
    )


@dataclass(frozen=True, slots=True)
class QueryArgs:
    """A parsed query string, preserving order and duplicates.

    Section 5.2 observes that URLs with many query parameters are hard
    to archive because parameters may appear in any order; this type
    supports order-insensitive comparison for the implication analysis.
    """

    pairs: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    @classmethod
    def parse(cls, query: str) -> "QueryArgs":
        """Split a raw query string into ordered key/value pairs."""
        if not query:
            return cls(())
        pairs = []
        for part in query.split("&"):
            if not part:
                continue
            if "=" in part:
                key, value = part.split("=", 1)
            else:
                key, value = part, ""
            pairs.append((key, value))
        return cls(tuple(pairs))

    def canonical(self) -> tuple[tuple[str, str], ...]:
        """Order-insensitive canonical form (sorted pairs)."""
        return tuple(sorted(self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def equivalent(self, other: "QueryArgs") -> bool:
        """True if both hold the same pairs regardless of order."""
        return self.canonical() == other.canonical()
