"""robots.txt — the web's crawl-permission protocol.

Web archives honour robots exclusions, which is one real-world reason
a URL can be "never archived" while its site is otherwise well
covered. Sites carry a :class:`RobotsRules`; the live web serves it at
``/robots.txt``; the archive's crawler fetches and caches it before
capturing (see :meth:`repro.archive.crawler.ArchiveCrawler.capture`).

Implemented subset of the de-facto standard: a single ``User-agent: *``
group with ``Disallow:`` path prefixes and ``Allow:`` overrides;
longest-match wins, as in RFC 9309.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class RobotsRules:
    """Parsed robots policy for one site (single ``*`` group)."""

    disallow: tuple[str, ...] = ()
    allow: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for prefix in (*self.disallow, *self.allow):
            if not prefix.startswith("/"):
                raise ValueError(f"robots prefixes must start with '/': {prefix!r}")

    @property
    def restricts_anything(self) -> bool:
        """Whether any path is disallowed."""
        return bool(self.disallow)

    def allows(self, path: str) -> bool:
        """Whether a crawler may fetch ``path`` (longest match wins)."""
        best_len = -1
        best_allowed = True
        for prefix in self.disallow:
            if path.startswith(prefix) and len(prefix) > best_len:
                best_len = len(prefix)
                best_allowed = False
        for prefix in self.allow:
            if path.startswith(prefix) and len(prefix) >= best_len:
                best_len = len(prefix)
                best_allowed = True
        return best_allowed

    def render(self) -> str:
        """The robots.txt body a server would serve."""
        lines = ["User-agent: *"]
        for prefix in self.disallow:
            lines.append(f"Disallow: {prefix}")
        for prefix in self.allow:
            lines.append(f"Allow: {prefix}")
        if not self.disallow and not self.allow:
            lines.append("Disallow:")
        return "\n".join(lines) + "\n"


def parse_robots(body: str) -> RobotsRules:
    """Parse a robots.txt body (single-group subset).

    Unknown directives and comments are ignored; groups for specific
    user agents are ignored too (archives crawl as ``*``). Malformed
    lines are skipped rather than fatal, like real crawlers do.
    """
    disallow: list[str] = []
    allow: list[str] = []
    in_star_group = False
    seen_any_group = False
    for raw_line in body.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        directive, _, value = line.partition(":")
        directive = directive.strip().lower()
        value = value.strip()
        if directive == "user-agent":
            in_star_group = value == "*"
            seen_any_group = True
        elif directive == "disallow" and (in_star_group or not seen_any_group):
            if value.startswith("/"):
                disallow.append(value)
        elif directive == "allow" and (in_star_group or not seen_any_group):
            if value.startswith("/"):
                allow.append(value)
    return RobotsRules(disallow=tuple(disallow), allow=tuple(allow))
