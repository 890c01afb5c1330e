"""Property-based tests (hypothesis) on core data structures and invariants."""

import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clock import SimTime
from repro.net.status import Outcome, classify_final_status
from repro.reporting.cdf import ecdf
from repro.textsim.shingles import (
    jaccard,
    minhash_sketch,
    shingle_set,
    shingle_similarity,
    sketch_similarity,
)
from repro.urls.editdist import edit_distance, one_edit_apart, unique_neighbor
from repro.urls.parse import parse_url
from repro.urls.psl import default_psl

# -- strategies -----------------------------------------------------------------

_host_label = st.text(
    alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8
)
_hostnames = st.lists(_host_label, min_size=1, max_size=4).map(".".join)
_paths = st.text(
    alphabet=string.ascii_lowercase + string.digits + "/-._", max_size=30
).map(lambda s: "/" + s.lstrip("/"))
_urls = st.builds(
    lambda scheme, host, path: f"{scheme}://{host}{path}",
    st.sampled_from(["http", "https"]),
    _hostnames,
    _paths,
)
_short_text = st.text(
    alphabet=string.ascii_lowercase + " ", min_size=0, max_size=200
)
_small_strings = st.text(
    alphabet=string.ascii_lowercase + "0123456789/-.", max_size=25
)


class TestEditDistanceMetric:
    @given(_small_strings, _small_strings)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)

    @given(_small_strings)
    def test_identity(self, a):
        assert edit_distance(a, a) == 0

    @given(_small_strings, _small_strings)
    def test_positive_for_distinct(self, a, b):
        if a != b:
            assert edit_distance(a, b) >= 1

    @given(_small_strings, _small_strings, _small_strings)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(_small_strings, _small_strings)
    def test_bounded_by_longer_length(self, a, b):
        assert edit_distance(a, b) <= max(len(a), len(b))


_url_chars = string.ascii_lowercase + string.digits + "/-._?=&"


@st.composite
def _edited(draw, source, max_edits=2):
    """``source`` after up to ``max_edits`` random single-character
    insertions, deletions and substitutions."""
    text = draw(source)
    for _ in range(draw(st.integers(0, max_edits))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("insert", "delete", "substitute")))
        char = draw(st.sampled_from(_url_chars))
        if op == "insert":
            text = text[:at] + char + text[at:]
        elif at < len(text):
            text = text[:at] + ("" if op == "delete" else char) + text[at + 1:]
    return text


def _reference_unique_neighbor(target, candidates):
    """The paper's rule, by the dynamic program: the one candidate at
    Levenshtein distance exactly 1, or ``None``."""
    near = [c for c in candidates if c != target and edit_distance(target, c) == 1]
    return near[0] if len(near) == 1 else None


#: Edge cases the linear check must get right, with their answers.
_ONE_EDIT_EDGES = [
    ("", "", False),                      # empty strings
    ("", "a", True),
    ("", "ab", False),
    ("http://e.com/a", "http://e.com/a/", True),    # a prefix of the other
    ("http://e.com/a", "http://e.com/a/b", False),
    ("http://e.com/a.html", "http://e.com/a.htmx", True),  # last character
    ("http://e.com/a.html", "http://e.com/a.htm", True),
    ("http://e.com/ab", "http://e.com/ba", False),
    ("http://e.com/page1", "http://e.com/page123", False),  # lengths differ by 2
    ("http://e.com/xpage", "http://e.com/pagey", False),
]


class TestOneEditDifferential:
    """The linear one-edit check against ``edit_distance`` as reference."""

    @given(_edited(_urls), _edited(_urls))
    @example("", "")
    @example("abc", "abcd")
    @example("abc", "abd")
    @example("abc", "a")
    def test_one_edit_apart_agrees_with_reference(self, a, b):
        assert one_edit_apart(a, b) == (a != b and edit_distance(a, b) == 1)

    @given(st.data())
    def test_near_pairs_agree_with_reference(self, data):
        a = data.draw(_urls)
        b = data.draw(_edited(st.just(a)))
        assert one_edit_apart(a, b) == (a != b and edit_distance(a, b) == 1)

    @pytest.mark.parametrize("a, b, expected", _ONE_EDIT_EDGES)
    def test_edge_cases(self, a, b, expected):
        assert (edit_distance(a, b) == 1) == expected
        assert one_edit_apart(a, b) == expected
        assert one_edit_apart(b, a) == expected

    @given(st.data())
    def test_unique_neighbor_matches_the_old_rule(self, data):
        target = data.draw(_urls)
        candidates = data.draw(
            st.lists(
                st.one_of(_edited(st.just(target)), _urls), max_size=8
            )
        )
        assert unique_neighbor(target, candidates) == (
            _reference_unique_neighbor(target, candidates)
        )


class TestUrlParseProperties:
    @given(_urls)
    def test_roundtrip(self, url):
        assert str(parse_url(url)) == url

    @given(_urls)
    def test_directory_is_prefix(self, url):
        parsed = parse_url(url)
        assert url.startswith(parsed.directory) or parsed.query

    @given(_urls)
    def test_directory_plus_leaf_reconstructs(self, url):
        parsed = parse_url(url)
        assert parsed.directory + parsed.leaf == url

    @given(_urls, st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=10))
    def test_with_leaf_same_directory(self, url, leaf):
        parsed = parse_url(url)
        assert parsed.with_leaf(leaf).directory == parsed.directory


class TestPslProperties:
    @given(_hostnames)
    def test_registrable_domain_is_suffix_of_host(self, host):
        domain = default_psl().registrable_domain(host)
        assert host.lower().endswith(domain)

    @given(_hostnames)
    def test_idempotent(self, host):
        psl = default_psl()
        domain = psl.registrable_domain(host)
        assert psl.registrable_domain(domain) == domain


class TestShingleProperties:
    @given(_short_text)
    def test_self_similarity_is_one(self, text):
        assert shingle_similarity(text, text) == 1.0

    @given(_short_text, _short_text)
    def test_similarity_symmetric(self, a, b):
        assert shingle_similarity(a, b) == shingle_similarity(b, a)

    @given(_short_text, _short_text)
    def test_similarity_bounded(self, a, b):
        assert 0.0 <= shingle_similarity(a, b) <= 1.0

    @given(st.sets(st.integers()), st.sets(st.integers()))
    def test_jaccard_bounds(self, a, b):
        assert 0.0 <= jaccard(frozenset(a), frozenset(b)) <= 1.0

    @given(_short_text)
    def test_minhash_self_similarity(self, text):
        sketch = minhash_sketch(text)
        assert sketch_similarity(sketch, sketch) == 1.0

    @given(_short_text, _short_text)
    def test_minhash_estimates_jaccard(self, a, b):
        true = jaccard(shingle_set(a), shingle_set(b))
        estimate = sketch_similarity(minhash_sketch(a), minhash_sketch(b))
        # 16 hashes: generous band, but extremes must agree.
        if true == 1.0:
            assert estimate == 1.0
        if true == 0.0 and shingle_set(a) and shingle_set(b):
            assert estimate <= 0.5


class TestSimTimeProperties:
    @given(st.floats(min_value=0, max_value=20000, allow_nan=False))
    def test_plus_minus_inverse(self, days):
        t = SimTime(1000.0)
        # Float addition is not exactly invertible; a nanosecond of
        # slack is irrelevant at day granularity.
        assert abs(t.plus_days(days).minus_days(days).days - t.days) < 1e-6

    @given(
        st.floats(min_value=0, max_value=20000, allow_nan=False),
        st.floats(min_value=0, max_value=20000, allow_nan=False),
    )
    def test_days_until_antisymmetric(self, a, b):
        x, y = SimTime(a), SimTime(b)
        assert x.days_until(y) == -y.days_until(x)

    @given(st.integers(min_value=0, max_value=30000))
    def test_date_roundtrip_on_whole_days(self, days):
        t = SimTime(float(days))
        assert SimTime.from_date(t.to_date()).days == t.days


class TestEcdfProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1))
    def test_monotone(self, sample):
        curve = ecdf(sample)
        xs = sorted(sample)
        values = [curve.at(x) for x in xs]
        assert values == sorted(values)
        assert values[-1] == 1.0

    @given(
        st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_quantile_inverse(self, sample, q):
        curve = ecdf(sample)
        assert curve.at(curve.quantile(q)) >= q - 1e-9

    @given(st.lists(st.floats(allow_nan=False, min_value=-1e4, max_value=1e4)))
    def test_ks_self_distance_zero(self, sample):
        curve = ecdf(sample)
        assert curve.ks_distance(curve) == 0.0


class TestStatusProperties:
    @given(st.integers(min_value=100, max_value=599))
    def test_every_status_classified(self, status):
        assert classify_final_status(status) in (
            Outcome.HTTP_200,
            Outcome.HTTP_404,
            Outcome.OTHER,
        )
