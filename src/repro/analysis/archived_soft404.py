"""Is an archived copy erroneous?

Section 3 needs this to show that IABot's single-fetch deadness check
is safe ("out of all permanent dead links which have at least one
archived copy after they were marked permanently dead, … the first of
these copies is erroneous (i.e., 404, soft-404, etc.) for 95% of
links"), and §5.1 needs it to spot links that were broken on the very
day they were posted.

Status codes settle most cases: a 4xx/5xx initial status, a redirect
that never reached a 200, or a failed capture is erroneous. The hard
case is an archived copy with status 200 that is actually a soft-404
or a parked page. The live-web trick (§3's random sibling probe)
cannot be replayed against history, so we use boilerplate evidence
instead: if the copy's content sketch is near-identical to a
contemporaneous 200 capture of a *different* URL on the same host,
the "content" is site boilerplate (error page, parked lander,
homepage), not the page the link pointed at.
"""

from __future__ import annotations

from ..archive.cdx import CdxApi, CdxQuery, MatchType
from ..archive.snapshot import Snapshot
from ..textsim.shingles import sketch_similarity

#: Sketch similarity above which two captures are "the same boilerplate".
BOILERPLATE_SIMILARITY = 0.9
#: How far around the capture to look for boilerplate twins (days).
TWIN_WINDOW_DAYS = 180.0
#: How many sibling captures to examine before giving up.
MAX_TWIN_CANDIDATES = 40


def archived_copy_erroneous(snapshot: Snapshot, cdx: CdxApi) -> bool:
    """Whether an archived copy records an error rather than content."""
    if snapshot.looks_erroneous_by_status:
        return True
    # A 200, or a redirect that landed on one: judge the content.
    return _body_is_boilerplate(snapshot, cdx)


def _body_is_boilerplate(snapshot: Snapshot, cdx: CdxApi) -> bool:
    """Does another URL on this host have the same content near this
    capture time?

    Looks at the first :data:`MAX_TWIN_CANDIDATES` independent 200
    captures of other URLs on the host within
    :data:`TWIN_WINDOW_DAYS`, and answers at the first near-identical
    sketch (or the first blanket-redirect signature).
    """
    if not snapshot.sketch:
        return False
    rows = cdx.query(
        CdxQuery(
            url=snapshot.url,
            match_type=MatchType.HOST,
            from_time=snapshot.captured_at.minus_days(TWIN_WINDOW_DAYS),
            to_time=snapshot.captured_at.plus_days(TWIN_WINDOW_DAYS),
            exclude_self=True,
        )
    )
    examined = 0
    for row in rows:
        if row.final_status != 200 or not row.sketch:
            continue
        # A redirect *landing* on the same final URL as this capture is
        # not independent evidence (it is the same landing page).
        if row.final_url is not None and row.final_url == snapshot.final_url:
            if row.url != snapshot.url and snapshot.initial_redirected:
                # Two different URLs redirecting to one landing page is
                # exactly the blanket-redirect signature.
                return True
            continue
        examined += 1
        if examined > MAX_TWIN_CANDIDATES:
            break
        similarity = sketch_similarity(row.sketch, snapshot.sketch)
        if similarity >= BOILERPLATE_SIMILARITY:
            return True
    return False
