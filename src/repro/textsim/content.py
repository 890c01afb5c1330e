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
path, with a per-fetch nonce line injected to model dynamic noise.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True)
class PageContent:
    """A rendered response body plus its stable core text.

    ``body`` is what a fetch returns (includes the per-fetch nonce);
    ``core`` is the stable portion, exposed for tests.
    """

    body: str
    core: str


class ContentGenerator:
    """Generates page bodies for one site.

    All variation between fetches comes from the ``nonce`` argument
    (the fetcher passes a monotonically increasing counter), so content
    is fully deterministic given (site_seed, path, nonce).
    """

    #: Approximate length, in words, of a real article body.
    ARTICLE_WORDS = 220
    #: Length of the dynamic noise line appended to every response.
    NONCE_WORDS = 1

    def __init__(self, site_seed: str) -> None:
        self.site_seed = site_seed
        template_index = int(
            hashlib.sha256(f"{site_seed}:errstyle".encode()).hexdigest(), 16
        )
        self._error_core = _ERROR_TEMPLATES[template_index % len(_ERROR_TEMPLATES)]
        # Cores are deterministic functions of (site_seed, path); caching
        # them keeps per-request rendering cheap when the same page is
        # fetched many times (bot sweeps, archive captures, probes).
        self._core_cache: dict[str, str] = {}
        self._article_cores: dict[str, str] = {}

    # -- core text per page kind ---------------------------------------------

    def article_core(self, path: str) -> str:
        """The stable text of a real page at ``path``."""
        core = self._article_cores.get(path)
        if core is None:
            words = _words_from_digest(
                f"{self.site_seed}:{path}", self.ARTICLE_WORDS
            )
            core = " ".join(words)
            self._article_cores[path] = core
        return core

    def homepage_core(self) -> str:
        """The stable text of the site's homepage."""
        core = self._core_cache.get("homepage")
        if core is None:
            words = _words_from_digest(f"{self.site_seed}:/", self.ARTICLE_WORDS)
            core = "latest headlines " + " ".join(words)
            self._core_cache["homepage"] = core
        return core

    def error_core(self) -> str:
        """The site-wide 'not found' page text (identical for all paths).

        Padded with deterministic site boilerplate (think navigation,
        footer, sitemap links) so the page is long enough for the
        99%-similarity detector to see two renders as near-identical.
        """
        return self._boilerplate(
            "errpage", self._error_core + " " + self.site_seed[:8]
        )

    def parked_core(self) -> str:
        """Parked-domain lander text (identical for all paths)."""
        return self._boilerplate("parked", _PARKED_TEMPLATE)

    def login_core(self) -> str:
        """The site's login-page text."""
        return self._boilerplate(
            "login", _LOGIN_TEMPLATE + " " + self.site_seed[:8]
        )

    def _boilerplate(self, kind: str, lead: str) -> str:
        """``lead`` padded to :data:`BOILERPLATE_WORDS` tokens."""
        core = self._core_cache.get(kind)
        if core is None:
            need = max(0, BOILERPLATE_WORDS - len(lead.split()))
            filler = _words_from_digest(f"{self.site_seed}:{kind}:boiler", need)
            core = lead + " " + " ".join(filler)
            self._core_cache[kind] = core
        return core

    # -- rendered responses -----------------------------------------------------

    def render(self, core: str, nonce: int) -> PageContent:
        """Attach the dynamic noise line for one fetch.

        The nonce line is a single token, tiny relative to the body, so
        shingle similarity between two renders of the same core stays
        above 99% while byte equality fails.
        """
        noise = hashlib.sha256(
            f"{self.site_seed}:nonce:{nonce}".encode()
        ).hexdigest()[:10]
        return PageContent(body=f"{core} req{noise}", core=core)

    def article(self, path: str, nonce: int) -> PageContent:
        """One render of the page at ``path``."""
        return self.render(self.article_core(path), nonce)

    def homepage(self, nonce: int) -> PageContent:
        """One render of the homepage."""
        return self.render(self.homepage_core(), nonce)

    def error_page(self, nonce: int) -> PageContent:
        """One render of the site's not-found page."""
        return self.render(self.error_core(), nonce)

    def parked_page(self, nonce: int) -> PageContent:
        """One render of the parked-domain lander."""
        return self.render(self.parked_core(), nonce)

    def login_page(self, nonce: int) -> PageContent:
        """One render of the login page."""
        return self.render(self.login_core(), nonce)
