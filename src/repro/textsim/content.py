"""Deterministic synthetic page content.

The soft-404 detector (§3) only works if the simulated web serves
*content* with the right statistical structure:

- two distinct real pages must be textually dissimilar;
- a soft-404 page and the error page for a random sibling URL on the
  same site must be nearly identical (similarity > 99%) but not
  byte-identical, because the paper explicitly avoids requiring
  identical responses ("multiple requests for even the same URL can
  yield slightly different responses");
- repeated fetches of the *same* page must differ slightly too.

Content is generated deterministically from a site seed and the page
path, with a per-fetch noise token appended to model dynamic noise. A
response carries its body as a :class:`PageText`, which renders the
text only when something reads it.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

_VOCAB = (
    "the", "of", "and", "a", "in", "to", "was", "is", "for", "as", "on",
    "with", "by", "at", "from", "its", "an", "were", "which", "this",
    "city", "team", "season", "match", "festival", "river", "county",
    "museum", "record", "album", "band", "minister", "election", "club",
    "championship", "village", "station", "university", "bridge",
    "historic", "national", "report", "council", "district", "harbor",
    "coast", "valley", "summit", "treaty", "archive", "library",
    "orchestra", "stadium", "airport", "railway", "cathedral", "garden",
)

_ERROR_TEMPLATES = (
    "sorry the page you requested could not be found please check the "
    "address or return to our homepage use the search box to find what "
    "you are looking for error reference",
    "page not found the content you are looking for may have been moved "
    "or removed browse our latest headlines or visit the site map error",
    "we could not find that page it may have expired or the link may be "
    "incorrect visit the homepage for the latest stories reference code",
)

_PARKED_TEMPLATE = (
    "this domain is for sale buy this premium domain now related searches "
    "cheap flights insurance quotes online degrees credit cards best "
    "hotels click here sponsored listings inquire about this domain"
)

_LOGIN_TEMPLATE = (
    "sign in to your account email address password remember me forgot "
    "your password register for a new account subscribe to continue "
    "reading log in with your member credentials"
)


#: Length, in tokens, of boilerplate pages (error / parked / login).
#: Sized so that the single dynamic nonce token keeps the 4-shingle
#: Jaccard similarity between two renders above the paper's 99%
#: detector threshold: sim ~= (N - 4) / (N + 4) >= 0.99 needs N >= 800.
BOILERPLATE_WORDS = 900


#: ``byte -> byte % len(_VOCAB)``, for ``bytes.translate``.
_BYTE_TO_WORD = bytes(byte % len(_VOCAB) for byte in range(256))


def _words_from_digest(seed: str, count: int) -> list[str]:
    """Deterministically expand ``seed`` into ``count`` vocabulary words.

    Word ``i`` is ``_VOCAB[b % len(_VOCAB)]`` for byte ``i`` of the
    concatenated digests ``sha256(f"{seed}:{counter}")``, counter 0, 1, ….
    """
    digests = b"".join(
        hashlib.sha256(f"{seed}:{counter}".encode("utf-8")).digest()
        for counter in range(-(-count // 32))
    )
    return list(map(_VOCAB.__getitem__, digests[:count].translate(_BYTE_TO_WORD)))


class PageCore(NamedTuple):
    """The identity of one page's stable text, which is a pure function
    of it: ``kind`` is ``"article"`` (``path`` is the page's canonical
    path), ``"homepage"``, ``"errpage"``, ``"parked"`` or ``"login"``."""

    site_seed: str
    kind: str
    path: str = ""

    def text(self) -> str:
        """The core text, rendered from the identity alone."""
        return ContentGenerator(self.site_seed).core(self.kind, self.path)


class PageText:
    """One generated response body, rendered on first read.

    Holds the body's identity instead of its text: the site's
    generator, the page's kind and path, and the request ``(address,
    url, day)`` the noise token derives from. ``str()`` renders and
    keeps the body; :attr:`core` names its stable part.
    """

    __slots__ = ("_content", "_kind", "_path", "_address", "_url", "_day", "_text")

    def __init__(
        self, content: ContentGenerator, kind: str, path: str,
        address: str, url: str, day: int,
    ) -> None:
        self._content, self._kind, self._path = content, kind, path
        self._address, self._url, self._day = address, url, day
        self._text: str | None = None

    @property
    def core(self) -> PageCore:
        """The identity of the body minus its noise token."""
        return PageCore(self._content.site_seed, self._kind, self._path)

    def __str__(self) -> str:
        if self._text is None:
            # The nonce hashes the request, so a fetch is a pure
            # function of (address, url, day).
            digest = hashlib.sha256(
                f"{self._address}|{self._url}|{self._day}".encode("utf-8")
            ).digest()
            core = self._content.core(self._kind, self._path)
            nonce = int.from_bytes(digest[:8], "big")
            self._text = self._content.render(core, nonce)
        return self._text


class ContentGenerator:
    """Generates page text for one site.

    A body is a stable core (per page kind and path) plus one noise
    token. The token derives from a nonce, which the live web hashes
    from the request's ``(address, url, day)`` (see :class:`PageText`),
    so content is fully deterministic given (site_seed, path, nonce).
    """

    #: Approximate length, in words, of a real article body.
    ARTICLE_WORDS = 220

    def __init__(self, site_seed: str) -> None:
        self.site_seed = site_seed
        template_index = int(
            hashlib.sha256(f"{site_seed}:errstyle".encode()).hexdigest(), 16
        )
        #: The lead text of each boilerplate kind.
        self._leads = {
            "errpage": _ERROR_TEMPLATES[template_index % len(_ERROR_TEMPLATES)]
            + " " + site_seed[:8],
            "parked": _PARKED_TEMPLATE,
            "login": _LOGIN_TEMPLATE + " " + site_seed[:8],
        }
        # Cores are deterministic functions of (site_seed, kind, path);
        # caching them keeps rendering cheap when the same page's body
        # is read many times (soft-404 probes, say).
        self._cores: dict[tuple[str, str], str] = {}

    def core(self, kind: str, path: str = "") -> str:
        """The stable text of the page :class:`PageCore` ``(kind, path)``.

        The error page (one for all paths), the parked lander and the
        login page lead with a template, padded with deterministic site
        boilerplate (navigation, footer, sitemap links) so the
        99%-similarity detector sees two renders as near-identical.
        """
        core = self._cores.get((kind, path))
        if core is None:
            seed = self.site_seed
            if kind == "article":
                words = _words_from_digest(f"{seed}:{path}", self.ARTICLE_WORDS)
                core = " ".join(words)
            elif kind == "homepage":
                words = _words_from_digest(f"{seed}:/", self.ARTICLE_WORDS)
                core = "latest headlines " + " ".join(words)
            else:
                lead = self._leads[kind]
                need = max(0, BOILERPLATE_WORDS - len(lead.split()))
                filler = _words_from_digest(f"{seed}:{kind}:boiler", need)
                core = lead + " " + " ".join(filler)
            self._cores[(kind, path)] = core
        return core

    # -- rendered bodies --------------------------------------------------------

    def render(self, core: str, nonce: int) -> str:
        """``core`` plus the dynamic noise token for one fetch.

        The token is tiny relative to the body, so shingle similarity
        between two renders of the same core stays above 99% while
        byte equality fails.
        """
        noise = hashlib.sha256(
            f"{self.site_seed}:nonce:{nonce}".encode()
        ).hexdigest()[:10]
        return f"{core} req{noise}"
