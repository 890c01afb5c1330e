"""Tests for repro.textsim — shingling, MinHash, synthetic content."""

from repro.textsim.content import BOILERPLATE_WORDS, ContentGenerator
from repro.textsim.shingles import (
    NUM_MINHASHES,
    jaccard,
    minhash_sketch,
    shingle_set,
    shingle_similarity,
    sketch_similarity,
    tokenize,
)


def _body(gen: ContentGenerator, kind: str, nonce: int, path: str = "") -> str:
    """One render of the page ``(kind, path)`` with noise ``nonce``."""
    return gen.render(gen.core(kind, path), nonce)


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert tokenize("Hello, World 123!") == ["hello", "world", "123"]

    def test_empty(self):
        assert tokenize("...") == []


class TestShingles:
    def test_count(self):
        text = "a b c d e"
        assert len(shingle_set(text, k=4)) == 2

    def test_short_document_single_shingle(self):
        assert shingle_set("one two", k=4) == frozenset({("one", "two")})

    def test_empty_document(self):
        assert shingle_set("", k=4) == frozenset()

    def test_k_validation(self):
        import pytest

        with pytest.raises(ValueError):
            shingle_set("a b", k=0)


class TestJaccard:
    def test_identical(self):
        s = frozenset({1, 2, 3})
        assert jaccard(s, s) == 1.0

    def test_disjoint(self):
        assert jaccard(frozenset({1}), frozenset({2})) == 0.0

    def test_both_empty(self):
        assert jaccard(frozenset(), frozenset()) == 1.0

    def test_partial(self):
        assert jaccard(frozenset({1, 2}), frozenset({2, 3})) == 1 / 3


class TestShingleSimilarity:
    def test_identical_text(self):
        assert shingle_similarity("a b c d e f", "a b c d e f") == 1.0

    def test_unrelated_text(self):
        a = "alpha beta gamma delta epsilon zeta"
        b = "one two three four five six"
        assert shingle_similarity(a, b) == 0.0


class TestMinhash:
    def test_sketch_length(self):
        assert len(minhash_sketch("a b c d e f g")) == NUM_MINHASHES

    def test_deterministic(self):
        text = "the quick brown fox jumps over the lazy dog " * 10
        assert minhash_sketch(text) == minhash_sketch(text)

    def test_empty_sketches_identical(self):
        assert sketch_similarity(minhash_sketch(""), minhash_sketch("")) == 1.0

    def test_identical_documents_similarity_one(self):
        text = "w x y z " * 50
        assert sketch_similarity(minhash_sketch(text), minhash_sketch(text)) == 1.0

    def test_distinct_documents_similarity_low(self):
        gen = ContentGenerator("seed")
        a = minhash_sketch(gen.core("article", "/one"))
        b = minhash_sketch(gen.core("article", "/two"))
        assert sketch_similarity(a, b) < 0.2

    def test_near_identical_documents_similarity_high(self):
        gen = ContentGenerator("seed")
        a = minhash_sketch(_body(gen, "errpage", 1))
        b = minhash_sketch(_body(gen, "errpage", 2))
        assert sketch_similarity(a, b) > 0.8

    def test_mismatched_lengths_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            sketch_similarity((1, 2), (1, 2, 3))


class TestContentGenerator:
    def test_error_pages_exceed_detector_threshold(self):
        # The §3 detector requires >99% shingle similarity between two
        # renders of the same boilerplate despite per-request noise.
        gen = ContentGenerator("site1")
        sim = shingle_similarity(
            _body(gen, "errpage", 1), _body(gen, "errpage", 2)
        )
        assert sim > 0.99

    def test_parked_pages_exceed_detector_threshold(self):
        gen = ContentGenerator("site2")
        sim = shingle_similarity(
            _body(gen, "parked", 1), _body(gen, "parked", 5)
        )
        assert sim > 0.99

    def test_renders_never_byte_identical(self):
        gen = ContentGenerator("site3")
        assert _body(gen, "errpage", 1) != _body(gen, "errpage", 2)

    def test_articles_distinct_across_paths(self):
        gen = ContentGenerator("site4")
        sim = shingle_similarity(
            _body(gen, "article", 1, "/a.html"),
            _body(gen, "article", 1, "/b.html"),
        )
        assert sim < 0.05

    def test_article_vs_error_distinct(self):
        gen = ContentGenerator("site5")
        sim = shingle_similarity(
            _body(gen, "article", 1, "/a.html"), _body(gen, "errpage", 1)
        )
        assert sim < 0.05

    def test_error_pages_differ_across_sites(self):
        a = _body(ContentGenerator("siteA"), "errpage", 1)
        b = _body(ContentGenerator("siteB"), "errpage", 1)
        assert shingle_similarity(a, b) < 0.1

    def test_boilerplate_padded_to_target(self):
        gen = ContentGenerator("site6")
        assert len(gen.core("errpage").split()) >= BOILERPLATE_WORDS

    def test_article_core_cached(self):
        gen = ContentGenerator("site7")
        assert gen.core("article", "/x") is gen.core("article", "/x")

    def test_login_page_mentions_credentials(self):
        gen = ContentGenerator("site8")
        assert "password" in _body(gen, "login", 1)
