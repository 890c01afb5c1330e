"""Tests for repro.urls.psl — Public Suffix List matching."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import UrlError
from repro.urls.psl import PublicSuffixList, default_psl, registrable_domain


class TestPublicSuffix:
    def test_simple_tld(self):
        assert default_psl().public_suffix("www.example.com") == "com"

    def test_two_level_suffix(self):
        assert default_psl().public_suffix("news.bbc.co.uk") == "co.uk"

    def test_three_level_suffix(self):
        psl = default_psl()
        assert psl.public_suffix("www.parliament.tas.gov.au") == "tas.gov.au"

    def test_unknown_tld_defaults_to_last_label(self):
        assert default_psl().public_suffix("foo.bar.unknowntld") == "unknowntld"

    def test_wildcard_rule(self):
        # *.ck: any single label under ck is a public suffix.
        assert default_psl().public_suffix("shop.anything.ck") == "anything.ck"

    def test_exception_rule(self):
        # !www.ck: www.ck is registrable despite the wildcard.
        assert default_psl().public_suffix("www.ck") == "ck"


class TestRegistrableDomain:
    def test_paper_examples(self):
        assert registrable_domain("www.baltimoresun.com") == "baltimoresun.com"
        assert registrable_domain("www.znaci.net") == "znaci.net"
        assert registrable_domain("www.main-spitze.de") == "main-spitze.de"
        assert registrable_domain("www.lnr.fr") == "lnr.fr"
        assert registrable_domain("jhpress.nli.org.il") == "nli.org.il"
        assert (
            registrable_domain("www.parliament.tas.gov.au")
            == "parliament.tas.gov.au"
        )

    def test_deep_subdomains_collapse(self):
        assert registrable_domain("a.b.c.example.co.uk") == "example.co.uk"

    def test_hostname_equal_to_suffix_maps_to_itself(self):
        assert registrable_domain("com") == "com"

    def test_case_insensitive(self):
        assert registrable_domain("WWW.Example.COM") == "example.com"

    def test_trailing_dot_tolerated(self):
        assert registrable_domain("www.example.com.") == "example.com"

    def test_wildcard_registrable(self):
        assert registrable_domain("shop.anything.ck") == "shop.anything.ck"

    def test_exception_registrable(self):
        assert registrable_domain("www.ck") == "www.ck"


class TestValidation:
    def test_empty_hostname_rejected(self):
        with pytest.raises(UrlError):
            registrable_domain("")

    def test_empty_label_rejected(self):
        with pytest.raises(UrlError):
            registrable_domain("foo..com")

    def test_leading_dot_rejected(self):
        with pytest.raises(UrlError):
            registrable_domain(".example.com")


class TestCustomRules:
    def test_from_text(self):
        psl = PublicSuffixList.from_text(
            """
            // comment
            zz
            co.zz
            """
        )
        assert psl.registrable_domain("www.site.co.zz") == "site.co.zz"
        assert psl.registrable_domain("www.site.zz") == "site.zz"


#: Labels that hit plain, wildcard (``*.ck``, ``*.kawasaki.jp``) and
#: exception (``!www.ck``, ``!city.kawasaki.jp``) rules, plus free
#: labels, an upper-case one and the empty label (an invalid host).
_LABELS = st.sampled_from(
    ["www", "ck", "city", "kawasaki", "jp", "co", "uk", "com", "example",
     "Shop", "a-b", "zz", ""]
)
_HOSTS = st.builds(
    lambda labels, dot: ".".join(labels) + dot,
    st.lists(_LABELS, min_size=1, max_size=5),
    st.sampled_from(["", "."]),
)


class TestMemo:
    @settings(max_examples=60, deadline=None)
    @given(hosts=st.lists(_HOSTS, min_size=1, max_size=12))
    def test_memoized_answers_equal_a_fresh_instance(self, hosts):
        """One instance asked the same hosts again and again answers
        exactly what a fresh, empty-memo instance answers, and a bad
        host raises on every call."""
        psl = PublicSuffixList()
        for host in hosts + hosts:
            try:
                expected = PublicSuffixList().registrable_domain(host)
            except UrlError:
                with pytest.raises(UrlError):
                    psl.registrable_domain(host)
                with pytest.raises(UrlError):
                    psl.registrable_domain(host)
            else:
                assert psl.registrable_domain(host) == expected
