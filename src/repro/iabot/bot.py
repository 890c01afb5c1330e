"""The InternetArchiveBot scan loop.

Per article, per external-link reference:

1. references already annotated dead are skipped (the efficiency rule
   the paper's §3 implications push back on — configurable);
2. the link is checked on the live web; live links are left alone;
3. for a dead link, the bot looks up an archived copy captured closest
   to the date the link was added (§2.1), under the availability
   timeout, among the copies captured by the sweep's instant;
4. a found copy patches the reference; otherwise the reference is
   annotated ``{{dead link |bot=InternetArchiveBot |fix-attempted=yes}}``
   — the "permanent dead link" marking the paper studies.

All changes to an article land as a single revision authored by
``InternetArchiveBot``, so history mining attributes markings exactly
as it does on the real Wikipedia.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..clock import SimTime
from ..rng import derive_seed
from ..wiki.article import Article
from ..wiki.encyclopedia import Encyclopedia
from ..wiki.templates import (
    IABOT_USERNAME,
    build_archive_url,
    dead_link,
    patched_cite,
    webarchive,
)
from ..wiki.wikitext import LinkRef
from .archive_client import IABotArchiveClient
from .checker import LinkChecker
from .config import IABotConfig


@dataclass
class BotStats:
    """Counters accumulated across sweeps."""

    articles_scanned: int = 0
    articles_edited: int = 0
    links_checked: int = 0
    links_alive: int = 0
    links_dead: int = 0
    patched: int = 0
    marked_permadead: int = 0
    unmarked_revived: int = 0
    skipped_marked: int = 0
    skipped_patched: int = 0

    def merge(self, other: "BotStats") -> None:
        """Accumulate another stats object into this one."""
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


class SweepShards:
    """Stable article-to-shard assignment for the bot's rolling pass:
    each sweep scans one of ``count`` shards, so ``count`` sweeps visit
    every article once. Each title is hashed once."""

    def __init__(self, count: int) -> None:
        self.count = count
        self._shard_of: dict[str, int] = {}

    def shard_of(self, title: str) -> int:
        """The shard ``title`` belongs to."""
        shard = self._shard_of.get(title)
        if shard is None:
            shard = derive_seed(0, f"shard:{title}") % self.count
            self._shard_of[title] = shard
        return shard

    def titles(self, titles: Iterable[str], shard: int) -> tuple[str, ...]:
        """The ``titles`` in ``shard``, in their given order."""
        return tuple(title for title in titles if self.shard_of(title) == shard)


class InternetArchiveBot:
    """The bot: wire a checker and an archive client to an encyclopedia."""

    def __init__(
        self,
        encyclopedia: Encyclopedia,
        checker: LinkChecker,
        archive_client: IABotArchiveClient,
        config: IABotConfig | None = None,
    ) -> None:
        self._enc = encyclopedia
        self._checker = checker
        self._archive = archive_client
        self.config = config if config is not None else IABotConfig()
        self.stats = BotStats()

    # -- public API -----------------------------------------------------------------

    def run_sweep(
        self, at: SimTime, titles: tuple[str, ...] | None = None
    ) -> BotStats:
        """Scan every article (or ``titles``) once at instant ``at``."""
        sweep = BotStats()
        for title in titles if titles is not None else self._enc.titles():
            article_stats = self.scan_article(title, at)
            sweep.merge(article_stats)
        self.stats.merge(sweep)
        return sweep

    def scan_article(self, title: str, at: SimTime) -> BotStats:
        """Scan one article; returns the per-article stats."""
        stats = BotStats(articles_scanned=1)
        article = self._enc.article(title)
        text = article.wikitext
        replacements: list[tuple[tuple[int, int], str]] = []
        for ref in article.link_refs():
            replacement = self._process_ref(article, ref, at, stats)
            if replacement is not None:
                replacements.append((ref.span, replacement))
        if not replacements:
            return stats
        new_text = _splice(text, replacements)
        self._enc.edit_article(
            title,
            at,
            IABOT_USERNAME,
            new_text,
            comment="Rescuing sources and tagging them as dead",
        )
        stats.articles_edited = 1
        return stats

    # -- per-reference logic ----------------------------------------------------------

    def _process_ref(
        self, article: Article, ref: LinkRef, at: SimTime, stats: BotStats
    ) -> str | None:
        """Returns the replacement wikitext for ``ref``, or None."""
        if ref.archive_url is not None:
            stats.skipped_patched += 1
            return None
        if ref.is_marked_dead and not self.config.recheck_marked_links:
            stats.skipped_marked += 1
            return None

        stats.links_checked += 1
        verdict = self._checker.check(ref.url, at)
        if not verdict.dead:
            stats.links_alive += 1
            if ref.is_marked_dead:
                # Recheck mode found a previously-dead link working
                # again (§3's 3%): drop the annotation.
                stats.unmarked_revived += 1
                return self._plain_text(ref)
            return None

        stats.links_dead += 1
        posted = article.first_revision_with_url(ref.url)
        posted_at = posted.timestamp if posted is not None else at
        copy = self._archive.find_copy(ref.url, posted_at, as_of=at)
        if copy is not None:
            stats.patched += 1
            return self._patched_text(ref, copy.url, copy.captured_at, at)
        if ref.is_marked_dead:
            return None  # already annotated; nothing new to record
        stats.marked_permadead += 1
        return self._plain_text(ref) + dead_link(at, IABOT_USERNAME).render()

    # -- wikitext assembly ---------------------------------------------------------------

    @staticmethod
    def _plain_text(ref: LinkRef) -> str:
        """The reference with no annotations."""
        if ref.cite is not None:
            return ref.cite.render()
        if ref.title:
            return f"[{ref.url} {ref.title}]"
        return f"[{ref.url}]"

    def _patched_text(
        self, ref: LinkRef, copy_url: str, captured_at: SimTime, at: SimTime
    ) -> str:
        archive = build_archive_url(copy_url, captured_at)
        if ref.cite is not None:
            return patched_cite(ref.cite, archive, at).render()
        return self._plain_text(ref) + webarchive(archive, at).render()


def _splice(text: str, replacements: list[tuple[tuple[int, int], str]]) -> str:
    """Apply span replacements (spans must not overlap)."""
    pieces: list[str] = []
    cursor = 0
    for (start, end), replacement in sorted(replacements, key=lambda r: r[0][0]):
        if start < cursor:
            raise ValueError("overlapping reference spans")
        pieces.append(text[cursor:start])
        pieces.append(replacement)
        cursor = end
    pieces.append(text[cursor:])
    return "".join(pieces)
