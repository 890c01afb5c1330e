"""Section 4.2: which archived redirections are not erroneous?

IABot ignores every archived copy in which a redirection was observed,
because "redirections on the web are often erroneous (e.g., the old
URL for a news article might redirect to the news site's homepage)".
The paper shows that is overly pessimistic: a historical redirection
for URL u can be validated by checking that its target was *unique* —
that other URLs under the same directory did not redirect to the same
place around the same time.

We implement the paper's procedure (compare against up to 6 sibling
URLs' redirect targets within 90 days of the copy) plus two structural
guards that encode its live-web intuition: a redirect whose target is
the site root or a login page is always treated as erroneous.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..archive.cdx import CdxApi, CdxQuery, MatchType
from ..archive.snapshot import Snapshot
from ..clock import SimTime
from ..errors import UrlError
from ..urls.parse import intern_url

DEFAULT_WINDOW_DAYS = 90.0
DEFAULT_MAX_SIBLINGS = 6


@dataclass(frozen=True, slots=True)
class RedirectVerdict:
    """Assessment of one archived 3xx copy."""

    snapshot: Snapshot
    valid: bool
    reason: str
    siblings_compared: int = 0


class RedirectValidator:
    """Cross-examination of archived redirections against siblings."""

    def __init__(
        self,
        cdx: CdxApi,
        window_days: float = DEFAULT_WINDOW_DAYS,
        max_siblings: int = DEFAULT_MAX_SIBLINGS,
    ) -> None:
        if window_days <= 0:
            raise ValueError("window_days must be positive")
        if max_siblings < 0:
            raise ValueError("max_siblings must be non-negative")
        self._cdx = cdx
        self.window_days = window_days
        self.max_siblings = max_siblings

    # -- single-copy validation ---------------------------------------------------

    def validate(self, snapshot: Snapshot) -> RedirectVerdict:
        """Judge one archived redirect copy."""
        if not snapshot.initial_redirected or snapshot.redirect_location is None:
            return RedirectVerdict(
                snapshot=snapshot, valid=False, reason="not a redirect copy"
            )
        target = snapshot.redirect_location
        structural = self._structurally_erroneous(snapshot.url, target)
        if structural:
            return RedirectVerdict(snapshot=snapshot, valid=False, reason=structural)

        compared = 0
        for sibling in self._sibling_redirects(snapshot):
            compared += 1
            if sibling.redirect_location == target:
                return RedirectVerdict(
                    snapshot=snapshot,
                    valid=False,
                    reason=(
                        f"sibling {sibling.url} redirected to the same "
                        "target around that time"
                    ),
                    siblings_compared=compared,
                )
            if compared >= self.max_siblings:
                break
        return RedirectVerdict(
            snapshot=snapshot,
            valid=True,
            reason="redirect target unique within the directory",
            siblings_compared=compared,
        )

    # -- link-level search --------------------------------------------------------------

    def find_valid_redirect_copy(
        self, url: str, before: SimTime | None = None
    ) -> Snapshot | None:
        """The earliest validated 3xx copy of ``url`` (optionally only
        considering captures before ``before``).

        This is the §4.2 patch-finder: WaybackMedic can plug it in to
        rescue links IABot gave up on.
        """
        rows = self._cdx.query(CdxQuery(url=url, match_type=MatchType.EXACT))
        for row in rows:
            if before is not None and not row.captured_at < before:
                continue
            if not row.initial_redirected:
                continue
            if self.validate(row).valid:
                return row
        return None

    # -- internals -------------------------------------------------------------------------

    def _structurally_erroneous(self, url: str, target: str) -> str | None:
        """Root/login targets are the canonical erroneous redirects."""
        try:
            source = intern_url(url)
            parsed_target = intern_url(target)
        except UrlError:
            return "unparseable redirect target"
        if parsed_target.path == "/" and not parsed_target.query:
            return "redirects to a site root"
        if parsed_target.path.rstrip("/").endswith("login"):
            return "redirects to a login page"
        if str(parsed_target) == str(source):
            return "redirects to itself"
        return None

    def _sibling_redirects(self, snapshot: Snapshot):
        """3xx captures of other same-directory URLs within the window,
        one per sibling URL (closest to the copy's capture time)."""
        rows = self._cdx.query(
            CdxQuery(
                url=snapshot.url,
                match_type=MatchType.DIRECTORY,
                from_time=snapshot.captured_at.minus_days(self.window_days),
                to_time=snapshot.captured_at.plus_days(self.window_days),
                exclude_self=True,
            )
        )
        best_per_url: dict[str, Snapshot] = {}
        for row in rows:
            if not row.initial_redirected:
                continue
            current = best_per_url.get(row.url)
            if current is None or (
                abs(row.captured_at.days - snapshot.captured_at.days)
                < abs(current.captured_at.days - snapshot.captured_at.days)
            ):
                best_per_url[row.url] = row
        return [best_per_url[url] for url in sorted(best_per_url)]
