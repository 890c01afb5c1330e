"""The live-web registry: every site, plus DNS, behind one fetch API.

:class:`LiveWeb` implements the :class:`~repro.net.fetch.OriginServer`
protocol, owns the :class:`~repro.net.dns.DnsTable`, and hands out
:class:`~repro.net.fetch.Fetcher` instances. All simulation components
— the study's probes, IABot's checks, the archive's crawlers — observe
the web exclusively through fetches, never by peeking at ``Site``
internals, which keeps the measurement honest.

The web is fixed once crawling starts: sites, pages and DNS records
are all registered before the first fetch, and nothing edits them
afterwards. The freshness horizons that responses carry (and that
:class:`~repro.archive.crawler.ArchiveCrawler` reuses answers by)
rely on it.
"""

from __future__ import annotations

from ..clock import SimTime
from ..errors import NetworkSimError
from ..net.dns import DnsRecord, DnsTable
from ..net.fetch import Fetcher, FetchResult
from ..net.http import HttpRequest, HttpResponse
from .site import Site


class LiveWeb:
    """Registry of sites addressable by DNS.

    A site's address in the DNS table is ``site:<hostname>`` (or
    ``parked:<hostname>`` for squatter re-registrations), mapping to a
    :class:`~repro.web.site.Site` instance here.
    """

    def __init__(self) -> None:
        self.dns = DnsTable()
        self._sites: dict[str, Site] = {}

    # -- registration -----------------------------------------------------------

    def add_site(self, site: Site, extra_hostnames: tuple[str, ...] = ()) -> None:
        """Register a site and its DNS interval(s).

        ``extra_hostnames`` lets several hostnames (e.g. with and
        without ``www.``) resolve to the same site.
        """
        self._register(
            f"site:{site.hostname}", site, (site.hostname, *extra_hostnames)
        )

    def add_parked_successor(self, original: Site, parked: Site) -> None:
        """Register a squatter's site on a lapsed hostname.

        The parked site's DNS interval must start at or after the
        original's expiry (the DNS table enforces non-overlap).
        """
        if original.dns_dies_at is None:
            raise NetworkSimError(
                f"{original.hostname!r} never expires; cannot be re-registered"
            )
        self._register(f"parked:{parked.hostname}", parked, (parked.hostname,))

    def _register(self, address: str, site: Site, hostnames) -> None:
        """Serve ``site`` at ``address``, which each of ``hostnames``
        resolves to over the site's lifetime."""
        if address in self._sites:
            raise NetworkSimError(f"{address!r} already registered")
        self._sites[address] = site
        for hostname in hostnames:
            self.dns.register(
                DnsRecord(
                    hostname=hostname,
                    address=address,
                    registered_at=site.created_at,
                    expires_at=site.dns_dies_at,
                )
            )

    # -- lookup ----------------------------------------------------------------------

    def sites(self) -> tuple[Site, ...]:
        """All registered sites (including parked successors)."""
        return tuple(self._sites.values())

    def site_by_hostname(self, hostname: str) -> Site | None:
        """The original (non-parked) site for a hostname, if any."""
        return self._sites.get(f"site:{hostname.lower()}")

    # -- OriginServer protocol ----------------------------------------------------------

    def handle(self, address: str, request: HttpRequest, at: SimTime) -> HttpResponse:
        """Serve one GET; called by the fetcher after DNS resolution.

        A body's dynamic-noise token is derived from the request itself
        (``(address, url, day)``) rather than drawn from a shared
        counter, so a fetch is a pure function of ``(url, at)`` — the
        property the executor's fetch memo and sharded workers both
        rely on. Fetches of *different* URLs (or on different days)
        still get distinct noise tokens, which is all the soft-404
        machinery needs. The token is only computed if something reads
        the body. The site stamps the response (or its timeout) with
        the answer's freshness horizon, ``fresh_until``.
        """
        site = self._sites.get(address)
        if site is None:
            raise NetworkSimError(f"DNS points at unknown address {address!r}")
        return site.respond(request, at, address)

    # -- convenience -----------------------------------------------------------------------

    def fetcher(self, max_redirects: int = 10) -> Fetcher:
        """A redirect-following GET client over this web."""
        return Fetcher(self.dns, self, max_redirects=max_redirects)

    def fetch(self, url: str, at: SimTime) -> FetchResult:
        """One-off fetch without keeping a fetcher around."""
        return self.fetcher().fetch(url, at)
