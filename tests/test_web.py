"""Tests for repro.web — pages, behaviours, sites, the live web."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.clock import SimTime
from repro.errors import ConnectionTimeout, NetworkSimError
from repro.net.http import HttpRequest
from repro.net.status import Outcome
from repro.textsim.shingles import shingle_similarity
from repro.web.behaviors import (
    GeoPolicy,
    MissingPagePolicy,
    OutageWindow,
    SiteState,
)
from repro.web.page import Page, PageFate, PageStatus
from repro.web.site import Site
from repro.web.world import LiveWeb

T2005 = SimTime.from_ymd(2005, 1, 1)
T2008 = SimTime.from_ymd(2008, 1, 1)
T2010 = SimTime.from_ymd(2010, 1, 1)
T2012 = SimTime.from_ymd(2012, 1, 1)
T2016 = SimTime.from_ymd(2016, 1, 1)
T2020 = SimTime.from_ymd(2020, 1, 1)
T2022 = SimTime.from_ymd(2022, 3, 15)


class TestPageLifecycle:
    def test_alive_page(self):
        page = Page(path_query="/a", created_at=T2008)
        assert page.status_at(T2010) is PageStatus.SERVES
        assert page.status_at(T2005) is PageStatus.MISSING

    def test_deleted_page(self):
        page = Page(
            path_query="/a", created_at=T2008, fate=PageFate.DELETED, died_at=T2012
        )
        assert page.alive_at(T2010)
        assert page.status_at(T2016) is PageStatus.MISSING

    def test_never_existed(self):
        page = Page(
            path_query="/a", created_at=T2008, fate=PageFate.NEVER_EXISTED
        )
        assert page.status_at(T2010) is PageStatus.MISSING

    def test_moved_page_before_redirect(self):
        page = Page(
            path_query="/a",
            created_at=T2008,
            fate=PageFate.MOVED,
            died_at=T2012,
            moved_to="http://e.com/b",
            redirect_added_at=T2020,
        )
        assert page.status_at(T2016) is PageStatus.MISSING
        assert page.status_at(T2020) is PageStatus.REDIRECTS
        assert page.status_at(T2022) is PageStatus.REDIRECTS

    def test_moved_page_redirect_removed(self):
        page = Page(
            path_query="/a",
            created_at=T2008,
            fate=PageFate.MOVED,
            died_at=T2010,
            moved_to="http://e.com/b",
            redirect_added_at=T2010,
            redirect_removed_at=T2016,
        )
        assert page.status_at(T2012) is PageStatus.REDIRECTS
        assert page.status_at(T2020) is PageStatus.MISSING

    def test_revived_page(self):
        page = Page(
            path_query="/a",
            created_at=T2008,
            fate=PageFate.DELETED,
            died_at=T2012,
            revived_at=T2020,
        )
        assert page.status_at(T2016) is PageStatus.MISSING
        assert page.status_at(T2022) is PageStatus.SERVES

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            Page(path_query="a", created_at=T2008)  # no leading slash
        with pytest.raises(ValueError):
            Page(path_query="/a", created_at=T2008, fate=PageFate.DELETED)
        with pytest.raises(ValueError):
            Page(
                path_query="/a",
                created_at=T2008,
                fate=PageFate.MOVED,
                died_at=T2012,
            )  # no moved_to
        with pytest.raises(ValueError):
            Page(
                path_query="/a",
                created_at=T2008,
                fate=PageFate.MOVED,
                died_at=T2012,
                moved_to="http://e.com/b",
                redirect_added_at=T2010,  # precedes death
            )
        with pytest.raises(ValueError):
            Page(
                path_query="/a",
                created_at=T2008,
                fate=PageFate.ALIVE,
                revived_at=T2020,  # revival needs DELETED
            )

    def test_working_interval(self):
        page = Page(
            path_query="/a", created_at=T2008, fate=PageFate.DELETED, died_at=T2012
        )
        assert page.working_interval() == (T2008, T2012)
        typo = Page(path_query="/a", created_at=T2008, fate=PageFate.NEVER_EXISTED)
        assert typo.working_interval() is None


class TestSiteState:
    def test_parked(self):
        state = SiteState(parked_from=T2016)
        assert not state.parked_at(T2012)
        assert state.parked_at(T2020)

    def test_geo_from(self):
        state = SiteState(geo=GeoPolicy.BLOCKED_403, geo_from=T2016)
        assert not state.geo_active_at(T2012)
        assert state.geo_active_at(T2020)

    def test_geo_without_onset_always_active(self):
        state = SiteState(geo=GeoPolicy.BLOCKED_TIMEOUT)
        assert state.geo_active_at(T2008)

    def test_outage_window(self):
        state = SiteState(outages=(OutageWindow(start=T2016, end=T2020),))
        assert not state.outage_at(T2012)
        assert state.outage_at(T2016)
        assert not state.outage_at(T2020)

    def test_outage_validation(self):
        with pytest.raises(ValueError):
            OutageWindow(start=T2020, end=T2016)

    def test_timeout_probability_bounds(self):
        with pytest.raises(ValueError):
            SiteState(timeout_probability=1.5)


def _get(site: Site, url: str, at: SimTime):
    return site.respond(HttpRequest.get(url), at, f"site:{site.hostname}")


class TestSiteResponses:
    def _site(self, policy=MissingPagePolicy.HARD_404, **kwargs) -> Site:
        site = Site(
            hostname="s.example.org",
            seed="tsite",
            created_at=T2005,
            missing_policy=policy,
            **kwargs,
        )
        site.add_page(Page(path_query="/real/page.html", created_at=T2008))
        return site

    def test_alive_page_serves_article(self):
        site = self._site()
        response = _get(site, "http://s.example.org/real/page.html", T2010)
        assert response.status == 200
        assert len(response.body) > 100

    def test_homepage(self):
        response = _get(self._site(), "http://s.example.org/", T2010)
        assert response.status == 200

    def test_login_page(self):
        response = _get(self._site(), "http://s.example.org/login", T2010)
        assert response.status == 200
        assert "password" in response.body

    def test_hard_404(self):
        response = _get(self._site(), "http://s.example.org/nope", T2010)
        assert response.status == 404

    def test_soft_404(self):
        site = self._site(policy=MissingPagePolicy.SOFT_404)
        response = _get(site, "http://s.example.org/nope", T2010)
        assert response.status == 200
        probe = _get(site, "http://s.example.org/alsonope", T2010)
        assert shingle_similarity(response.body, probe.body) > 0.99

    def test_redirect_home(self):
        site = self._site(policy=MissingPagePolicy.REDIRECT_HOME)
        response = _get(site, "http://s.example.org/nope", T2010)
        assert response.status == 302
        assert response.location == site.root_url

    def test_redirect_login(self):
        site = self._site(policy=MissingPagePolicy.REDIRECT_LOGIN)
        response = _get(site, "http://s.example.org/nope", T2010)
        assert response.location == site.login_url

    def test_redirect_offsite(self):
        site = Site(
            hostname="s.example.org",
            seed="x",
            created_at=T2005,
            missing_policy=MissingPagePolicy.REDIRECT_OFFSITE,
            offsite_redirect_target="http://agg.example.net/",
        )
        response = _get(site, "http://s.example.org/nope", T2010)
        assert response.location == "http://agg.example.net/"

    def test_offsite_requires_target(self):
        with pytest.raises(ValueError):
            Site(
                hostname="s.example.org",
                seed="x",
                created_at=T2005,
                missing_policy=MissingPagePolicy.REDIRECT_OFFSITE,
            )

    def test_unknown_policy_raises_under_optimize(self):
        # ``python -O`` strips asserts, so the unknown-policy check must
        # be a real raise, or the policy turns silently into an
        # offsite 302.
        script = (
            "from repro.clock import SimTime\n"
            "from repro.errors import NetworkSimError\n"
            "from repro.net.http import HttpRequest\n"
            "from repro.web.site import Site\n"
            "site = Site(hostname='s.example.org', seed='x',\n"
            "            missing_policy='gone_fishing',\n"
            "            offsite_redirect_target='http://agg.example.net/')\n"
            "try:\n"
            "    site.respond(HttpRequest.get('http://s.example.org/nope'),\n"
            "                 SimTime.from_ymd(2010, 1, 1), 'site:s.example.org')\n"
            "except NetworkSimError as exc:\n"
            "    print('raised:', exc)\n"
            "else:\n"
            "    print('served')\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised:"), proc.stdout
        assert "gone_fishing" in proc.stdout

    def test_policy_timeline(self):
        site = Site(
            hostname="s.example.org",
            seed="x",
            created_at=T2005,
            missing_policy=MissingPagePolicy.HARD_404,
            policy_changes=(
                (T2010, MissingPagePolicy.REDIRECT_HOME),
                (T2016, MissingPagePolicy.HARD_404),
            ),
        )
        assert _get(site, "http://s.example.org/x", T2008).status == 404
        assert _get(site, "http://s.example.org/x", T2012).status == 302
        assert _get(site, "http://s.example.org/x", T2020).status == 404

    def test_policy_changes_must_be_ordered(self):
        with pytest.raises(ValueError):
            Site(
                hostname="s",
                seed="x",
                created_at=T2005,
                policy_changes=(
                    (T2016, MissingPagePolicy.SOFT_404),
                    (T2010, MissingPagePolicy.HARD_404),
                ),
            )

    def test_parked_overrides_everything(self):
        site = self._site(state=SiteState(parked_from=T2016))
        real = _get(site, "http://s.example.org/real/page.html", T2020)
        missing = _get(site, "http://s.example.org/nope", T2020)
        assert real.status == 200 and missing.status == 200
        assert shingle_similarity(real.body, missing.body) > 0.99

    def test_geo_403(self):
        site = self._site(
            state=SiteState(geo=GeoPolicy.BLOCKED_403, geo_from=T2016)
        )
        assert _get(site, "http://s.example.org/real/page.html", T2020).status == 403
        assert _get(site, "http://s.example.org/real/page.html", T2010).status == 200

    def test_geo_timeout(self):
        site = self._site(state=SiteState(geo=GeoPolicy.BLOCKED_TIMEOUT))
        with pytest.raises(ConnectionTimeout):
            _get(site, "http://s.example.org/real/page.html", T2010)

    def test_outage_503(self):
        site = self._site(
            state=SiteState(outages=(OutageWindow(start=T2016, end=T2022),))
        )
        assert _get(site, "http://s.example.org/real/page.html", T2020).status == 503

    def test_flaky_timeouts_deterministic_per_day(self):
        site = self._site(state=SiteState(timeout_probability=0.85))
        url = "http://s.example.org/real/page.html"
        outcomes = []
        for _ in range(3):
            try:
                _get(site, url, T2010)
                outcomes.append("ok")
            except ConnectionTimeout:
                outcomes.append("timeout")
        assert len(set(outcomes)) == 1  # same URL, same day, same fate

    def test_duplicate_page_rejected(self):
        site = self._site()
        with pytest.raises(ValueError):
            site.add_page(Page(path_query="/real/page.html", created_at=T2008))


class TestLiveWeb:
    def test_fetch_through_dns(self, micro_web):
        result = micro_web.fetch("http://news.example.com/stays/alive.html", T2010)
        assert result.outcome is Outcome.HTTP_200

    def test_moved_late_lifecycle(self, micro_web):
        url = "http://news.example.com/moved/late.html"
        assert micro_web.fetch(url, T2010).outcome is Outcome.HTTP_200
        assert micro_web.fetch(url, T2016).outcome is Outcome.HTTP_404
        late = micro_web.fetch(url, T2022)
        assert late.outcome is Outcome.HTTP_200
        assert late.redirected

    def test_duplicate_site_rejected(self, micro_web):
        with pytest.raises(NetworkSimError):
            micro_web.add_site(
                Site(hostname="news.example.com", seed="dup", created_at=T2005)
            )

    def test_parked_successor(self):
        web = LiveWeb()
        original = Site(
            hostname="old.example.net",
            seed="orig",
            created_at=T2005,
            dns_dies_at=T2012,
        )
        original.add_page(Page(path_query="/x", created_at=T2008))
        web.add_site(original)
        parked = Site(
            hostname="old.example.net",
            seed="squat",
            created_at=T2016,
            state=SiteState(parked_from=T2016),
        )
        web.add_parked_successor(original, parked)
        assert web.fetch("http://old.example.net/x", T2010).outcome is Outcome.HTTP_200
        assert (
            web.fetch("http://old.example.net/x", SimTime.from_ymd(2014, 1, 1)).outcome
            is Outcome.DNS_FAILURE
        )
        revived = web.fetch("http://old.example.net/x", T2020)
        assert revived.outcome is Outcome.HTTP_200  # parked lander

    def test_parked_successor_requires_expiry(self):
        web = LiveWeb()
        immortal = Site(hostname="x.example.com", seed="a", created_at=T2005)
        web.add_site(immortal)
        with pytest.raises(NetworkSimError):
            web.add_parked_successor(
                immortal,
                Site(hostname="x.example.com", seed="b", created_at=T2016),
            )

    def test_site_by_hostname(self, micro_web):
        assert micro_web.site_by_hostname("news.example.com") is not None
        assert micro_web.site_by_hostname("unknown.example.com") is None
