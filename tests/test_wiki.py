"""Tests for repro.wiki — wikitext, templates, articles, encyclopedia."""

import pytest

from repro.clock import SimTime
from repro.errors import ArticleNotFound, RevisionError, WikiError
from repro.wiki.article import Article
from repro.wiki.encyclopedia import Encyclopedia, PERMADEAD_CATEGORY
from repro.wiki.templates import (
    IABOT_USERNAME,
    build_archive_url,
    cite_web,
    dead_link,
    month_year,
    parse_archive_url,
    patched_cite,
    webarchive,
)
from repro.wiki.wikitext import extract_link_refs, make_template, parse_templates

T2010 = SimTime.from_ymd(2010, 1, 1)
T2012 = SimTime.from_ymd(2012, 5, 10)
T2016 = SimTime.from_ymd(2016, 8, 1)
T2020 = SimTime.from_ymd(2020, 2, 2)

URL = "http://site.example.com/news/story.html"


class TestTemplateParsing:
    def test_simple_template(self):
        templates = parse_templates("before {{cite web |url=http://x.com |title=T}} after")
        assert len(templates) == 1
        assert templates[0].normalized_name == "cite web"
        assert templates[0].get("url") == "http://x.com"
        assert templates[0].get("title") == "T"

    def test_positional_params(self):
        (t,) = parse_templates("{{foo|a|b|k=v}}")
        assert t.get("1") == "a"
        assert t.get("2") == "b"
        assert t.get("k") == "v"

    def test_nested_template_stays_in_value(self):
        (t,) = parse_templates("{{outer |x={{inner|1}} |y=2}}")
        assert t.normalized_name == "outer"
        assert "{{inner|1}}" in t.get("x")
        assert t.get("y") == "2"

    def test_multiple_top_level(self):
        templates = parse_templates("{{a|1}}{{b|2}}")
        assert [t.name for t in templates] == ["a", "b"]

    def test_unbalanced_braces_rejected(self):
        with pytest.raises(WikiError):
            parse_templates("{{cite web |url=x")

    def test_render_roundtrip(self):
        original = "{{cite web |url=http://x.com |title=Story}}"
        (t,) = parse_templates(original)
        assert t.render() == original

    def test_has(self):
        (t,) = parse_templates("{{x |url=a}}")
        assert t.has("url")
        assert not t.has("title")

    def test_spans_recorded(self):
        text = "ab {{x|1}} cd"
        (t,) = parse_templates(text)
        assert text[t.start: t.end] == "{{x|1}}"


class TestLinkRefExtraction:
    def test_cite_ref(self):
        text = "* " + cite_web(URL, "A story").render()
        (ref,) = extract_link_refs(text)
        assert ref.url == URL
        assert ref.cite is not None
        assert not ref.is_marked_dead

    def test_cite_with_dead_link(self):
        text = cite_web(URL, "T").render() + dead_link(T2016, IABOT_USERNAME).render()
        (ref,) = extract_link_refs(text)
        assert ref.is_marked_dead
        assert ref.is_permanently_dead
        assert ref.marked_by == IABOT_USERNAME

    def test_patched_cite_not_permadead(self):
        archive = build_archive_url(URL, T2012)
        text = patched_cite(cite_web(URL, "T"), archive, T2016).render()
        (ref,) = extract_link_refs(text)
        assert ref.archive_url == archive
        assert not ref.is_permanently_dead

    def test_bare_bracket_link(self):
        (ref,) = extract_link_refs(f"see [{URL} the story] here")
        assert ref.url == URL
        assert ref.title == "the story"
        assert ref.cite is None

    def test_bare_link_without_caption(self):
        (ref,) = extract_link_refs(f"see [{URL}]")
        assert ref.url == URL
        assert ref.title == ""

    def test_bare_link_with_dead_annotation(self):
        text = f"[{URL} x]" + dead_link(T2016, IABOT_USERNAME).render()
        (ref,) = extract_link_refs(text)
        assert ref.is_permanently_dead

    def test_bare_link_with_webarchive_patch(self):
        archive = build_archive_url(URL, T2012)
        text = f"[{URL} x]" + webarchive(archive, T2016).render()
        (ref,) = extract_link_refs(text)
        assert ref.archive_url == archive
        assert not ref.is_permanently_dead

    def test_human_marking_has_no_bot(self):
        text = cite_web(URL, "T").render() + dead_link(T2016).render()
        (ref,) = extract_link_refs(text)
        assert ref.is_permanently_dead
        assert ref.marked_by == ""

    def test_multiple_refs_in_order(self):
        text = (
            "* " + cite_web("http://a.com/1", "A").render() + "\n"
            "* [http://b.com/2 B]\n"
            "* " + cite_web("http://c.com/3", "C").render() + "\n"
        )
        refs = extract_link_refs(text)
        assert [r.url for r in refs] == [
            "http://a.com/1",
            "http://b.com/2",
            "http://c.com/3",
        ]

    def test_archive_url_inside_cite_not_a_separate_ref(self):
        archive = build_archive_url(URL, T2012)
        text = patched_cite(cite_web(URL, "T"), archive, T2016).render()
        refs = extract_link_refs(text)
        assert len(refs) == 1

    def test_span_covers_annotation(self):
        text = "xx " + cite_web(URL, "T").render() + dead_link(T2016).render() + " yy"
        (ref,) = extract_link_refs(text)
        start, end = ref.span
        assert text[start:end].startswith("{{cite web")
        assert text[start:end].endswith("}}")
        assert "dead link" in text[start:end]


class TestArchiveUrls:
    def test_roundtrip(self):
        archive = build_archive_url(URL, T2012)
        parsed = parse_archive_url(archive)
        assert parsed is not None
        stamp, original = parsed
        assert original == URL
        assert stamp.same_day(T2012)

    def test_non_archive_url(self):
        assert parse_archive_url(URL) is None

    def test_bad_stamp(self):
        assert parse_archive_url("http://web.archive.org/web/xyz/http://a.com") is None

    def test_month_year(self):
        assert month_year(T2012) == "May 2012"


class TestArticleHistory:
    def test_revisions_append(self):
        article = Article(title="T")
        article.edit(T2010, "User", "first")
        article.edit(T2012, "User", "second")
        assert len(article.revisions) == 2
        assert article.wikitext == "second"
        assert article.latest.revision_id == 2

    def test_out_of_order_edit_rejected(self):
        article = Article(title="T")
        article.edit(T2012, "User", "x")
        with pytest.raises(RevisionError):
            article.edit(T2010, "User", "y")

    def test_empty_article_has_no_latest(self):
        with pytest.raises(RevisionError):
            _ = Article(title="T").latest

    def test_first_revision_with_url(self):
        article = Article(title="T")
        article.edit(T2010, "A", "no links yet")
        article.edit(T2012, "B", "* " + cite_web(URL, "S").render())
        found = article.first_revision_with_url(URL)
        assert found is not None and found.timestamp == T2012

    def test_url_in_prose_does_not_count(self):
        article = Article(title="T")
        article.edit(T2010, "A", f"mentioned {URL} in passing")
        assert article.first_revision_with_url(URL) is None

    def test_first_revision_marking_dead(self):
        article = Article(title="T")
        article.edit(T2010, "A", "* " + cite_web(URL, "S").render())
        marked_text = (
            "* " + cite_web(URL, "S").render()
            + dead_link(T2016, IABOT_USERNAME).render()
        )
        article.edit(T2016, IABOT_USERNAME, marked_text)
        marking = article.first_revision_marking_dead(URL)
        assert marking is not None
        assert marking.user == IABOT_USERNAME
        assert marking.timestamp == T2016


class TestEncyclopedia:
    def test_create_and_lookup(self):
        enc = Encyclopedia()
        enc.create_article("Alpha", T2010, "U", "text")
        assert enc.article("Alpha").wikitext == "text"
        assert len(enc) == 1

    def test_duplicate_title_rejected(self):
        enc = Encyclopedia()
        enc.create_article("Alpha", T2010, "U", "x")
        with pytest.raises(WikiError):
            enc.create_article("Alpha", T2012, "U", "y")

    def test_missing_article(self):
        with pytest.raises(ArticleNotFound):
            Encyclopedia().article("Nope")

    def test_titles_alphabetical(self):
        enc = Encyclopedia()
        enc.create_article("Zeta", T2010, "U", "x")
        enc.create_article("Alpha", T2010, "U", "x")
        assert enc.titles() == ("Alpha", "Zeta")

    def test_link_posted_events(self):
        enc = Encyclopedia()
        enc.create_article("A", T2010, "U", "* " + cite_web(URL, "S").render())
        assert len(enc.events) == 1
        (event,) = enc.events.events()
        assert event.url == URL and event.posted_at == T2010

    def test_no_duplicate_event_for_existing_url(self):
        enc = Encyclopedia()
        body = "* " + cite_web(URL, "S").render()
        enc.create_article("A", T2010, "U", body)
        enc.edit_article("A", T2012, "U", body + "\nmore prose")
        assert len(enc.events) == 1

    def test_category_membership_follows_markings(self):
        enc = Encyclopedia()
        body = "* " + cite_web(URL, "S").render()
        enc.create_article("A", T2010, "U", body)
        assert enc.articles_in_category(PERMADEAD_CATEGORY) == ()
        marked = body + dead_link(T2016, IABOT_USERNAME).render()
        enc.edit_article("A", T2016, IABOT_USERNAME, marked)
        assert enc.articles_in_category(PERMADEAD_CATEGORY) == ("A",)

    def test_category_leaves_after_patch(self):
        enc = Encyclopedia()
        body = (
            "* " + cite_web(URL, "S").render()
            + dead_link(T2016, IABOT_USERNAME).render()
        )
        enc.create_article("A", T2016, "U", body)
        assert enc.articles_in_category(PERMADEAD_CATEGORY) == ("A",)
        archive = build_archive_url(URL, T2012)
        patched = "* " + patched_cite(cite_web(URL, "S"), archive, T2020).render()
        enc.edit_article("A", T2020, IABOT_USERNAME, patched)
        assert enc.articles_in_category(PERMADEAD_CATEGORY) == ()

    def test_human_marking_also_files_category(self):
        enc = Encyclopedia()
        body = "* " + cite_web(URL, "S").render() + dead_link(T2016).render()
        enc.create_article("A", T2016, "U", body)
        assert enc.articles_in_category(PERMADEAD_CATEGORY) == ("A",)

    def test_unknown_category_rejected(self):
        with pytest.raises(WikiError):
            Encyclopedia().articles_in_category("Nonexistent category")


class TestTemplateBuilders:
    def test_dead_link_with_bot_has_fix_attempted(self):
        t = dead_link(T2016, IABOT_USERNAME)
        assert t.get("fix-attempted") == "yes"
        assert t.get("bot") == IABOT_USERNAME

    def test_dead_link_without_bot(self):
        t = dead_link(T2016)
        assert not t.has("bot")

    def test_patched_cite_replaces_existing_archive_params(self):
        cite = cite_web(URL, "T")
        first = patched_cite(cite, "http://web.archive.org/web/1/x", T2016)
        second = patched_cite(first, "http://web.archive.org/web/2/y", T2020)
        assert second.get("archive-url") == "http://web.archive.org/web/2/y"
        rendered = second.render()
        assert rendered.count("archive-url") == 1

    def test_make_template_hyphenates(self):
        t = make_template("x", fix_attempted="yes")
        assert t.get("fix-attempted") == "yes"


class TestRevisionParsing:
    def test_wikitext_is_parsed_once_and_copies_returned(self, monkeypatch):
        import repro.wiki.article as article_module

        calls = []
        real = article_module.extract_link_refs

        def counting(text):
            calls.append(text)
            return real(text)

        monkeypatch.setattr(article_module, "extract_link_refs", counting)
        article = Article(title="A")
        revision = article.edit(T2016, "U", "* " + cite_web(URL, "S").render())
        first = revision.link_refs()
        first.clear()
        second = revision.link_refs()
        assert [ref.url for ref in second] == [URL]
        assert second is not revision.link_refs()
        assert len(calls) == 1

    def test_memo_is_invisible_to_equality(self):
        one = Article(title="A").edit(T2016, "U", "* [" + URL + "]")
        two = Article(title="A").edit(T2016, "U", "* [" + URL + "]")
        one.link_refs()
        assert one == two and hash(one) == hash(two)
        assert "_refs" not in repr(one)


_CORRUPT_EVENT_LOG_SCRIPT = """
from repro.clock import SimTime
from repro.errors import EventLogError
from repro.wiki.events import EventLog, LinkPostedEvent

log = EventLog()
for i in range(4):
    log.append(LinkPostedEvent(f"http://u{i % 2}.test/", "A", SimTime(float(i))))
log._by_url["http://u0.test/"].pop()
try:
    log.verify_index()
except EventLogError as error:
    print(type(error).__name__)
else:
    print("passed")
"""


def test_event_log_corruption_detected_under_optimize():
    """``verify_index`` must not vanish under ``python -O``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPT_EVENT_LOG_SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["EventLogError"]
