"""The §2.4 data collection pipeline.

Reproduces the paper's three collection steps against the simulated
Wikipedia:

1. fetch the category "Articles with permanently dead external links"
   (alphabetically ordered) and parse the current revision of each
   article, extracting URLs marked permanently dead;
2. fetch each article's full edit history and mine, per URL, the date
   it was added, the date it was marked, and the marking username;
3. join in public Alexa-style site rankings.

Each article's history is walked exactly once (all URLs mined in the
same pass), since parsing old revisions dominates collection cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..clock import SimTime
from ..wiki.api import WikiApi
from ..wiki.encyclopedia import Encyclopedia, PERMADEAD_CATEGORY
from ..urls.parse import intern_url
from ..errors import UrlError
from .records import Dataset, LinkRecord


@dataclass(frozen=True, slots=True)
class CollectedLink:
    """One permanently dead URL with its mined history."""

    url: str
    article_title: str
    posted_at: SimTime
    marked_at: SimTime
    marked_by: str


class Collector:
    """Collects permanently dead links from an encyclopedia."""

    def __init__(
        self,
        encyclopedia: Encyclopedia,
        site_rankings: dict[str, int] | None = None,
    ) -> None:
        self._api = WikiApi(encyclopedia)
        self._rankings = site_rankings if site_rankings is not None else {}

    def category_titles(self) -> tuple[str, ...]:
        """The category listing, alphabetical, drained through the
        paginated categorymembers endpoint (as the paper crawled it)."""
        return self._api.all_category_members(PERMADEAD_CATEGORY)

    def collect(self, article_limit: int | None = None) -> list[CollectedLink]:
        """Crawl the first ``article_limit`` category articles (or all).

        The paper's primary dataset crawls the first 10,000 articles in
        alphabetical order; its representativeness check uses all of
        them (``article_limit=None``).
        """
        titles = self.category_titles()
        if article_limit is not None:
            titles = titles[:article_limit]
        collected: list[CollectedLink] = []
        seen_urls: set[str] = set()
        for title in titles:
            for link in self._mine_article(title):
                if link.url in seen_urls:
                    continue
                seen_urls.add(link.url)
                collected.append(link)
        return collected

    def to_dataset(
        self, collected: list[CollectedLink], description: str = ""
    ) -> Dataset:
        """Attach rankings and wrap as a :class:`Dataset`."""
        records = []
        for link in collected:
            ranking = None
            try:
                hostname = intern_url(link.url).host_lower
            except UrlError:
                hostname = ""
            if hostname:
                ranking = self._rankings.get(hostname)
            records.append(
                LinkRecord(
                    url=link.url,
                    article_title=link.article_title,
                    posted_at=link.posted_at,
                    marked_at=link.marked_at,
                    marked_by=link.marked_by,
                    site_ranking=ranking,
                )
            )
        return Dataset(records=records, description=description)

    # -- history mining ----------------------------------------------------------

    def mine_article(self, title: str) -> list[CollectedLink]:
        """Mine one article's permanently dead links (public, for the
        live pipeline's per-article re-mining cache)."""
        return self._mine_article(title)

    def _mine_article(self, title: str) -> list[CollectedLink]:
        """All permanently dead URLs in the article's current revision,
        with dates mined from one pass over the history."""
        history = self._api.all_revisions(title)
        current = history[-1].link_refs()
        wanted = {ref.url for ref in current if ref.is_permanently_dead}
        if not wanted:
            return []
        first_seen: dict[str, SimTime] = {}
        first_marked: dict[str, tuple[SimTime, str]] = {}
        for revision in history:
            remaining_seen = wanted - first_seen.keys()
            remaining_marked = wanted - first_marked.keys()
            if not remaining_seen and not remaining_marked:
                break
            for ref in revision.link_refs():
                if ref.url not in wanted:
                    continue
                if ref.url not in first_seen:
                    first_seen[ref.url] = revision.timestamp
                if ref.is_marked_dead and ref.url not in first_marked:
                    first_marked[ref.url] = (revision.timestamp, revision.user)
        links = []
        for url in wanted:
            if url not in first_seen or url not in first_marked:
                continue  # malformed history; skip defensively
            marked_at, marked_by = first_marked[url]
            links.append(
                CollectedLink(
                    url=url,
                    article_title=title,
                    posted_at=first_seen[url],
                    marked_at=marked_at,
                    marked_by=marked_by,
                )
            )
        links.sort(key=lambda link: link.url)
        return links
