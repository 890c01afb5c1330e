"""Simulated DNS.

A hostname resolves only while its registration interval covers the
query time. Site abandonment — the dominant cause of the paper's
"DNS Failure" bucket — is modelled by ending the interval; a later
re-registration (e.g. by a domain squatter who then serves a parked
page) is a second record for the same hostname.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

from ..clock import SimTime, first_after
from ..errors import DnsError


@dataclass(frozen=True, slots=True)
class DnsRecord:
    """One registration interval for a hostname.

    ``expires_at`` of ``None`` means the registration is still active
    at the end of the simulation. ``address`` is an opaque identifier
    for the serving endpoint (the site id in our web model).
    """

    hostname: str
    address: str
    registered_at: SimTime
    expires_at: SimTime | None = None

    def active_at(self, at: SimTime) -> bool:
        """Whether the registration interval covers instant ``at``."""
        days = at.days
        if days < self.registered_at.days:
            return False
        return self.expires_at is None or days < self.expires_at.days


@dataclass
class DnsTable:
    """All DNS state for the simulated web.

    Lookup returns the record active at the query time; if none is
    active, resolution raises :class:`~repro.errors.DnsError`
    (NXDOMAIN), matching what a real resolver reports for an expired
    domain.
    """

    _records: dict[str, list[DnsRecord]] = field(default_factory=dict)

    def register(self, record: DnsRecord) -> None:
        """Add a registration interval for a hostname.

        Overlapping intervals for the same hostname are rejected: a
        name can only point at one endpoint at a time.
        """
        host = record.hostname.lower()
        existing = self._records.setdefault(host, [])
        for other in existing:
            if self._overlaps(record, other):
                raise DnsError(
                    host, f"overlapping registration with {other.address!r}"
                )
        insort(existing, record, key=lambda r: r.registered_at.days)

    def resolve(self, hostname: str, at: SimTime) -> DnsRecord:
        """The record active for ``hostname`` at time ``at``.

        Raises :class:`~repro.errors.DnsError` when the hostname was
        never registered or its registration has lapsed.
        """
        host = hostname.lower()
        records = self._records.get(host)
        if not records:
            raise DnsError(host, "NXDOMAIN")
        for record in records:
            if record.active_at(at):
                return record
        raise DnsError(host, "NXDOMAIN (registration lapsed)")

    def next_change(self, hostname: str, at: SimTime) -> float:
        """Day number of ``hostname``'s first registration boundary after ``at``.

        :meth:`resolve` gives the same answer for ``hostname`` from
        ``at`` up to, but excluding, that instant. ``math.inf`` when no
        boundary follows, which covers a hostname never registered.
        """
        instants = []
        for record in self._records.get(hostname.lower(), ()):
            instants += (record.registered_at, record.expires_at)
        return first_after(at, instants)

    def hostnames(self) -> list[str]:
        """All hostnames ever registered, sorted."""
        return sorted(self._records)

    def records_for(self, hostname: str) -> tuple[DnsRecord, ...]:
        """All registration intervals for ``hostname`` in time order."""
        return tuple(self._records.get(hostname.lower(), ()))

    @staticmethod
    def _overlaps(a: DnsRecord, b: DnsRecord) -> bool:
        a_end = a.expires_at.days if a.expires_at is not None else float("inf")
        b_end = b.expires_at.days if b.expires_at is not None else float("inf")
        return a.registered_at.days < b_end and b.registered_at.days < a_end
