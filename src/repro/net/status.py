"""HTTP status taxonomy and the paper's five-way outcome classification.

Figure 4 buckets every probe into one of: DNS Failure, Timeout, 404,
200, Other. "Initial status code" means the status of the first
response (before any redirect); "final status code" means the status
after all redirects — the paper uses both (§2.4).
"""

from __future__ import annotations

import enum


class Outcome(enum.Enum):
    """The five live-web outcome categories of Figure 4."""

    DNS_FAILURE = "DNS Failure"
    TIMEOUT = "Timeout"
    HTTP_404 = "404"
    HTTP_200 = "200"
    OTHER = "Other"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Order in which Figure 4 presents the categories.
FIGURE4_ORDER = (
    Outcome.DNS_FAILURE,
    Outcome.TIMEOUT,
    Outcome.HTTP_404,
    Outcome.HTTP_200,
    Outcome.OTHER,
)


def is_success(status: int) -> bool:
    """2xx."""
    return 200 <= status < 300


def is_redirect(status: int) -> bool:
    """3xx with a Location header semantics (301/302/303/307/308)."""
    return status in (301, 302, 303, 307, 308)


def classify_final_status(status: int) -> Outcome:
    """Map a final HTTP status to a Figure 4 category.

    DNS failures and timeouts never reach this function — they have no
    status code and are classified by the fetcher directly.
    """
    if status == 404:
        return Outcome.HTTP_404
    if status == 200:
        return Outcome.HTTP_200
    return Outcome.OTHER
