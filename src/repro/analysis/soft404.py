"""Section 3's soft-404 detector.

A 200 response does not prove a link works: parked domains, "not
found" pages served with status 200, and blanket redirects to a
homepage all masquerade as success. The paper adapts Bar-Yossef et
al.'s technique: probe a *deliberately invalid* sibling URL u' (the
leaf after the last '/' replaced by 25 random characters) and compare.

u is declared broken when either

1. u and u' redirect to the same final URL, and that URL is not a
   login page (sites legitimately bounce everything to a login wall); or
2. the k-shingling similarity between the two final response bodies
   exceeds 99% (identical responses are *not* required — even two
   fetches of the same page differ slightly).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..clock import SimTime
from ..net.fetch import Fetcher
from ..rng import Stream
from ..urls.generate import UrlFactory
from ..textsim.shingles import shingle_similarity_batch
from ..urls.parse import intern_url

SIMILARITY_THRESHOLD = 0.99

_LOGIN_HINTS = re.compile(
    r"(sign in|log ?in|password|register for|credentials)", re.IGNORECASE
)


@dataclass(frozen=True, slots=True)
class Soft404Verdict:
    """Outcome of probing one 200-status URL."""

    url: str
    broken: bool
    reason: str
    similarity: float | None = None
    probe_url: str = ""

    @property
    def genuinely_alive(self) -> bool:
        """The URL serves real content (not a soft-404)."""
        return not self.broken


class Soft404Detector:
    """Random-leaf sibling probing over the live web."""

    def __init__(
        self,
        fetcher: Fetcher,
        rng: Stream,
        threshold: float = SIMILARITY_THRESHOLD,
    ) -> None:
        self._fetcher = fetcher
        self._factory = UrlFactory(rng)
        self._threshold = threshold

    def check(self, url: str, at: SimTime) -> Soft404Verdict:
        """Decide whether a 200-responding ``url`` is actually broken.

        Assumes the caller already observed a 200 final status for
        ``url`` (the §3 pipeline only runs the detector on those).
        """
        return self.check_many([url], at)[0]

    def check_many(
        self, urls: list[str], at: SimTime, ats: list[SimTime] | None = None
    ) -> list[Soft404Verdict]:
        """Probe every URL and return one verdict each, in order.

        Semantically identical to calling :meth:`check` per URL — the
        fetches (and the probe-URL RNG draws) happen strictly in list
        order, which is what keeps seeded runs reproducible — but the
        shingle similarities of all undecided pairs are computed by
        one batch kernel instead of a per-record loop.

        ``ats`` gives each URL its own probe instant (the live
        pipeline re-checks records at per-record times); the RNG draw
        order is unchanged, so the sibling-probe URLs depend only on
        the list order, never on the instants.
        """
        times = ats if ats is not None else [at] * len(urls)
        if len(times) != len(urls):
            raise ValueError("ats must parallel urls")
        fetched = []
        for url, when in zip(urls, times):
            result = self._fetcher.fetch(url, when)
            probe = self._factory.random_leaf_probe(intern_url(url))
            probe_result = self._fetcher.fetch(probe, when)
            fetched.append((url, probe, result, probe_result))

        verdicts: list[Soft404Verdict | None] = [None] * len(fetched)
        pending: list[int] = []
        pairs: list[tuple[str, str]] = []
        for index, (url, probe, result, probe_result) in enumerate(fetched):
            if (
                result.redirected
                and probe_result.redirected
                and result.final_url is not None
                and result.final_url == probe_result.final_url
                and not self._looks_like_login(result.body)
            ):
                verdicts[index] = Soft404Verdict(
                    url=url,
                    broken=True,
                    reason="same redirect target as random sibling",
                    probe_url=str(probe),
                )
                continue
            pending.append(index)
            pairs.append((result.body, probe_result.body))

        for index, similarity in zip(
            pending, shingle_similarity_batch(pairs)
        ):
            url, probe = fetched[index][0], fetched[index][1]
            if similarity > self._threshold:
                verdicts[index] = Soft404Verdict(
                    url=url,
                    broken=True,
                    reason=(
                        f"response {similarity:.4f} similar to random sibling"
                    ),
                    similarity=similarity,
                    probe_url=str(probe),
                )
            else:
                verdicts[index] = Soft404Verdict(
                    url=url,
                    broken=False,
                    reason="distinct content from random sibling",
                    similarity=similarity,
                    probe_url=str(probe),
                )
        return verdicts

    @staticmethod
    def _looks_like_login(body: str) -> bool:
        return bool(_LOGIN_HINTS.search(body))
