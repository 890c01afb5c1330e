"""Tests for repro.urls.parse — the paper's URL definitions."""

import pytest

from repro.errors import UrlError
from repro.urls.parse import (
    ParsedUrl,
    QueryArgs,
    directory_prefix,
    hostname_of,
    normalize,
    parse_url,
)


class TestParseUrl:
    def test_basic(self):
        url = parse_url("http://www.example.com/a/b.html")
        assert url.scheme == "http"
        assert url.hostname == "www.example.com"
        assert url.path == "/a/b.html"
        assert url.query == ""

    def test_https(self):
        assert parse_url("https://example.com/").scheme == "https"

    def test_no_path_gets_root(self):
        assert parse_url("http://example.com").path == "/"

    def test_query_split(self):
        url = parse_url("http://e.com/x.asp?a=1&b=2")
        assert url.path == "/x.asp"
        assert url.query == "a=1&b=2"

    def test_question_mark_in_query_preserved(self):
        url = parse_url("http://e.com/x?a=1?b=2")
        assert url.query == "a=1?b=2"

    def test_scheme_case_insensitive(self):
        assert parse_url("HTTP://e.com/").scheme == "http"

    def test_rejects_other_schemes(self):
        with pytest.raises(UrlError):
            parse_url("ftp://example.com/file")

    def test_rejects_missing_scheme(self):
        with pytest.raises(UrlError):
            parse_url("www.example.com/page")

    def test_rejects_empty_hostname(self):
        with pytest.raises(UrlError):
            parse_url("http:///path")

    def test_rejects_non_string(self):
        with pytest.raises(UrlError):
            parse_url(123)  # type: ignore[arg-type]

    def test_str_roundtrip(self):
        original = "http://www.example.com/a/b.html?x=1"
        assert str(parse_url(original)) == original


class TestPaperDefinitions:
    def test_hostname_is_between_scheme_and_first_slash(self):
        # §2.4's exact definition, including ports.
        assert hostname_of("http://Example.COM:8080/a") == "example.com"

    def test_directory_prefix_until_last_slash(self):
        assert (
            directory_prefix("http://e.com/news/2011/story.html")
            == "http://e.com/news/2011/"
        )

    def test_directory_of_root_page(self):
        assert directory_prefix("http://e.com/story.html") == "http://e.com/"

    def test_query_does_not_affect_directory(self):
        assert (
            directory_prefix("http://e.com/a/b.asp?x=1/y")
            == "http://e.com/a/"
        )

    def test_leaf_includes_query(self):
        url = parse_url("http://e.com/a/b.asp?x=1")
        assert url.leaf == "b.asp?x=1"

    def test_with_leaf_builds_sibling(self):
        url = parse_url("http://e.com/a/b.html")
        sibling = url.with_leaf("zzz123")
        assert str(sibling) == "http://e.com/a/zzz123"
        assert sibling.directory == url.directory

    def test_with_leaf_carrying_query(self):
        url = parse_url("http://e.com/a/b.asp?x=1")
        sibling = url.with_leaf("c.asp?y=2")
        assert str(sibling) == "http://e.com/a/c.asp?y=2"

    def test_site_root(self):
        assert parse_url("http://e.com/a/b").site_root == "http://e.com/"


class TestNormalize:
    def test_lowercases_authority_only(self):
        assert (
            normalize("http://WWW.Example.com/CaseSensitive/Path")
            == "http://www.example.com/CaseSensitive/Path"
        )


class TestParsedUrlValidation:
    def test_path_must_start_with_slash(self):
        with pytest.raises(UrlError):
            ParsedUrl(scheme="http", hostname="e.com", path="x")

    def test_empty_hostname_rejected(self):
        with pytest.raises(UrlError):
            ParsedUrl(scheme="http", hostname="", path="/")


class TestQueryArgs:
    def test_parse_pairs(self):
        args = QueryArgs.parse("a=1&b=2")
        assert args.pairs == (("a", "1"), ("b", "2"))

    def test_parse_flag_without_value(self):
        assert QueryArgs.parse("flag").pairs == (("flag", ""),)

    def test_empty(self):
        assert len(QueryArgs.parse("")) == 0

    def test_order_insensitive_equivalence(self):
        a = QueryArgs.parse("a=1&b=2")
        b = QueryArgs.parse("b=2&a=1")
        assert a.equivalent(b)
        assert a.pairs != b.pairs

    def test_duplicates_preserved(self):
        args = QueryArgs.parse("a=1&a=2")
        assert len(args) == 2


class TestUrlMemo:
    """:func:`intern_url`, the one URL memo every reader shares."""

    def test_parses_each_string_once(self, monkeypatch):
        import repro.urls.parse as parse_module

        calls = []
        real = parse_module.parse_url
        monkeypatch.setattr(parse_module, "_interned", {})
        monkeypatch.setattr(
            parse_module, "parse_url", lambda url: calls.append(url) or real(url)
        )
        first = parse_module.intern_url("http://Example.com:8080/a/b?x=1")
        assert parse_module.intern_url("http://Example.com:8080/a/b?x=1") is first
        assert calls == ["http://Example.com:8080/a/b?x=1"]
        assert first == real("http://Example.com:8080/a/b?x=1")
        assert first.host_lower == "example.com"
        assert str(first) == "http://Example.com:8080/a/b?x=1"

    def test_bounded_and_never_memoises_errors(self, monkeypatch):
        import repro.urls.parse as parse_module

        monkeypatch.setattr(parse_module, "_interned", {})
        monkeypatch.setattr(parse_module, "URL_MEMO_MAX", 2)
        intern_url = parse_module.intern_url
        first = intern_url("http://a.test/")
        intern_url("http://b.test/")
        intern_url("http://c.test/")  # full: the memo starts over
        again = intern_url("http://a.test/")
        assert again == first and again is not first
        for _ in range(2):
            with pytest.raises(UrlError):
                intern_url("ftp://a.test/")
