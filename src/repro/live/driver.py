"""Driving a generated world forward past its study instant.

World generation replays history *up to* the study instant and stops.
The live pipeline needs the story to continue: bots keep sweeping,
crawlers keep capturing, editors keep adding and removing references.
:class:`WorldDriver` is that continuation — a thin, deterministic
conductor over the world's own actors (the same
:class:`~repro.iabot.bot.InternetArchiveBot`, the same
:class:`~repro.archive.crawler.ArchiveCrawler`, the same
:meth:`~repro.wiki.encyclopedia.Encyclopedia.edit_article` that
generated history), with one hard rule the incremental engine's
correctness rests on: **the clock only moves forward**. Every action
must post-date the previous one, so everything appended to the event
log or the snapshot store lands strictly after any prior build — which
is exactly the invariant that keeps cached outcomes valid
(:mod:`repro.live.incremental`).
"""

from __future__ import annotations

from ..clock import SimTime
from ..errors import LiveError
from ..iabot.bot import SweepShards
from ..rng import derive_seed

__all__ = ["WorldDriver"]


class WorldDriver:
    """Deterministic forward evolution of one generated world."""

    def __init__(self, world) -> None:
        self._world = world
        self.now: SimTime = world.study_time
        self._sweep_shards = SweepShards(world.config.sweep_shards)
        self._sweep_cursor = 0

    def _advance(self, at: SimTime) -> SimTime:
        if not (self.now < at):
            raise LiveError(
                f"world time must move forward: now {self.now}, "
                f"requested {at}"
            )
        self.now = at
        return at

    # -- the world's own actors ----------------------------------------------------

    def sweep(self, at: SimTime):
        """One bot sweep over the next article shard (rolling pass).

        Uses the same stable title→shard assignment the historical
        replay used, cycling shards across calls — after
        ``sweep_shards`` sweeps every article has been visited once.
        Marks newly dead links (emitting marked events), patches what
        the archive can cover.
        """
        self._advance(at)
        shard = self._sweep_cursor % self._sweep_shards.count
        self._sweep_cursor += 1
        titles = self._sweep_shards.titles(
            self._world.encyclopedia.titles(), shard
        )
        return self._world.bot.run_sweep(at, titles=titles)

    def capture(self, url: str, at: SimTime):
        """One archive capture attempt (may refuse: robots, dead)."""
        self._advance(at)
        return self._world.crawler.capture(url, at)

    # -- editorial actions ---------------------------------------------------------

    def add_link(self, title: str, url: str, at: SimTime) -> None:
        """An editor appends a bare reference to an existing article."""
        self._advance(at)
        encyclopedia = self._world.encyclopedia
        body = encyclopedia.article(title).wikitext
        body += f"* [{url} later addition]\n"
        encyclopedia.edit_article(
            title, at, self._editor(url), body, comment="added reference"
        )

    def remove_link(self, title: str, url: str, at: SimTime) -> bool:
        """An editor deletes a reference outright (emits a removal).

        Cuts the reference's whole bullet line when the reference is
        the line's only content; otherwise cuts just the reference
        span. Returns False when the article has no reference to
        ``url``.
        """
        self._advance(at)
        encyclopedia = self._world.encyclopedia
        article = encyclopedia.article(title)
        text = article.wikitext
        for ref in article.link_refs():
            if ref.url != url:
                continue
            start, end = ref.span
            line_start = text.rfind("\n", 0, start) + 1
            line_end = text.find("\n", end)
            line_end = len(text) if line_end == -1 else line_end + 1
            prefix = text[line_start:start]
            suffix = text[end:line_end]
            if prefix.strip() in ("", "*") and suffix.strip() == "":
                new_text = text[:line_start] + text[line_end:]
            else:
                new_text = text[:start] + text[end:]
            encyclopedia.edit_article(
                title, at, self._editor(url), new_text,
                comment="removed reference",
            )
            return True
        return False

    # -- discovery helpers ---------------------------------------------------------

    def permadead_refs(self) -> tuple[tuple[str, str], ...]:
        """Every (title, url) currently rendering "permanent dead link".

        Title-then-url ordered, so callers picking "the k-th one" are
        deterministic across runs.
        """
        found: list[tuple[str, str]] = []
        encyclopedia = self._world.encyclopedia
        for title in encyclopedia.titles():
            for ref in encyclopedia.article(title).link_refs():
                if ref.is_permanently_dead:
                    found.append((title, ref.url))
        return tuple(sorted(found))

    @staticmethod
    def _editor(url: str) -> str:
        return f"Curator{derive_seed(311, url) % 311}"
