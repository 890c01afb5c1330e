"""Differential tests for the numeric kernels.

Two kernels have a numpy implementation beside the pure-Python one,
chosen by whether numpy imports (:mod:`repro.numerics`): MinHash
sketching and the §3 soft-404 shingle-similarity batch, both in
:mod:`repro.textsim.shingles`. Their contract is *value identity*:
each numpy kernel must equal its pure-Python reference exactly, not
approximately, which these tests pin by calling both directly. The
stdlib-only kernels — the Figure 4 histogram, ECDF construction and
the merge-walk KS distance — are pinned against their plain
formulations. The whole-report byte compare without numpy lives in
``tests/test_install_smoke.py``.
"""

from __future__ import annotations

from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.live_status import bucket_counts
from repro.reporting.cdf import Ecdf, ecdf, ks_distance
from repro.textsim import shingles
from repro.textsim.shingles import (
    minhash_sketch,
    shingle_set,
    shingle_similarity,
    shingle_similarity_batch,
    sketch_similarity,
    tokenize,
)

needs_numpy = pytest.mark.skipif(
    shingles.np is None, reason="needs numpy for the numpy kernels"
)

# A small shared vocabulary (so shingle sets actually collide) plus
# tokens that exercise tokenize(): case folding, punctuation
# stripping, digits.
_WORDS = (
    "alpha beta gamma delta epsilon zeta eta theta iota kappa "
    "Error, 404 NOT-FOUND page#42"
).split()

texts = st.lists(
    st.sampled_from(_WORDS), min_size=0, max_size=24
).map(" ".join)

shingle_widths = st.integers(min_value=1, max_value=6)

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9
)

# Sample values drawn from a tiny grid so ties are the norm, mixed
# with arbitrary finite floats.
tie_prone_floats = st.one_of(
    st.integers(min_value=0, max_value=5).map(float), finite_floats
)


def _batch_kernels():
    """Every implementation of the shingle-similarity batch."""
    kernels = [shingles._shingle_similarity_batch_py]
    if shingles.np is not None:
        kernels.append(shingles._shingle_similarity_batch_np)
    return kernels


# -- shingle / MinHash kernels ----------------------------------------------------


class TestShingleKernels:
    @given(st.lists(st.tuples(texts, texts), max_size=8), shingle_widths)
    @settings(max_examples=120, deadline=None)
    def test_shingle_similarity_batch_matches_reference(self, pairs, k):
        expected = [shingle_similarity(a, b, k) for a, b in pairs]
        assert shingle_similarity_batch(pairs, k) == expected
        # The dispatcher answers an empty batch itself.
        for kernel in _batch_kernels() if pairs else ():
            assert kernel(pairs, k) == expected

    @needs_numpy
    @given(texts.filter(lambda text: tokenize(text)), shingle_widths)
    @settings(max_examples=100, deadline=None)
    def test_minhash_numpy_matches_pure_python(self, text, k):
        # Bit-identical: an archive built without numpy matches one
        # built with it.
        tokens = tokenize(text)
        expected = shingles._minhash_py(tokens, k)
        assert shingles._minhash_np(tokens, k) == expected
        assert minhash_sketch(text, k) == expected

    def test_shingle_similarity_batch_rejects_bad_k(self):
        with pytest.raises(ValueError):
            shingle_similarity_batch([("a b", "a b")], 0)

    def test_sketch_similarity_rejects_ragged_pairs(self):
        good = minhash_sketch("alpha beta gamma delta epsilon")
        with pytest.raises(ValueError):
            sketch_similarity(good, good[:-1])
        with pytest.raises(ValueError):
            sketch_similarity((), ())

    def test_wide_shingles_overflow_uint64_packing_exactly(self):
        """k wide enough that (vocab+1)**k > 2**64 stays exact.

        The numpy packing cannot be injective in uint64 here, so the
        kernel must take the pure-Python path rather than return an
        approximate Jaccard.
        """
        a = " ".join(_WORDS[i % 10] for i in range(60))
        b = " ".join(_WORDS[(i + 3) % 10] for i in range(55))
        pairs = [(a, b), (a, a), ("", b), ("alpha beta", b)]
        for k in (40, 64, 65):
            expected = [shingle_similarity(x, y, k) for x, y in pairs]
            for kernel in _batch_kernels():
                assert kernel(pairs, k) == expected

    @given(st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_tokenize_fast_path_matches_regex_contract(self, text):
        """ASCII translate+split tokenization equals the regex scan.

        The regex defines the contract (maximal ``[a-z0-9]+`` runs of
        the lowercased text); the ASCII fast lane must never deviate,
        on ASCII or otherwise.
        """
        assert tokenize(text) == shingles._TOKEN_RE.findall(text.lower())

    @given(texts, texts, shingle_widths)
    @settings(max_examples=60, deadline=None)
    def test_shingle_set_is_the_ground_truth(self, a, b, k):
        """The reference itself ties back to explicit set algebra."""
        set_a, set_b = shingle_set(a, k), shingle_set(b, k)
        if not set_a and not set_b:
            expected = 1.0
        else:
            expected = len(set_a & set_b) / len(set_a | set_b)
        assert shingle_similarity(a, b, k) == expected


# -- bucket counts ----------------------------------------------------------------


_LABELS = ["ok", "dead", "redirect", "timeout", "dns"]


class TestBucketCounts:
    @given(
        st.lists(st.sampled_from(_LABELS), max_size=40),
        st.permutations(_LABELS).map(lambda p: p[:3]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_loop_reference(self, labels, order):
        reference: dict[str, int] = {key: 0 for key in order}
        for label in labels:
            reference[label] = reference.get(label, 0) + 1
        result = bucket_counts(labels, order)
        assert result == reference
        # dict equality ignores ordering; the Figure 4 contract does
        # not — ordered keys first, extras in first-seen order.
        assert list(result) == list(reference)

    def test_accepts_any_iterable(self):
        result = bucket_counts((label for label in ["b", "a", "b"]), ("a",))
        assert result == {"a": 1, "b": 2}
        assert list(result) == ["a", "b"]


# -- float kernels: ECDF construction / ks_distance -------------------------------


def _legacy_ks(a_values, b_values) -> float:
    """The per-grid-point bisect formulation of the KS statistic."""
    grid = sorted(set(a_values) | set(b_values))
    return max(
        abs(
            bisect_right(a_values, x) / len(a_values)
            - bisect_right(b_values, x) / len(b_values)
        )
        for x in grid
    )


class TestFloatKernels:
    @given(st.lists(tie_prone_floats, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_sorted_floats_matches_sorted(self, sample):
        assert ecdf(sample).values == tuple(sorted(float(v) for v in sample))

    @given(
        st.lists(tie_prone_floats, min_size=1, max_size=30),
        st.lists(tie_prone_floats, min_size=1, max_size=30),
    )
    @settings(max_examples=300, deadline=None)
    def test_ks_distance_matches_legacy_bisect_form(self, a, b):
        # Tie-prone draws give duplicates within a sample and values
        # shared by both, the cases where a merge walk can go wrong.
        a_sorted = tuple(sorted(float(v) for v in a))
        b_sorted = tuple(sorted(float(v) for v in b))
        expected = _legacy_ks(a_sorted, b_sorted)
        assert ks_distance(a_sorted, b_sorted) == expected
        assert ks_distance(b_sorted, a_sorted) == expected

    def test_ecdf_ks_empty_conventions(self):
        assert ecdf([]).ks_distance(ecdf([])) == 0.0
        assert ecdf([]).ks_distance(ecdf([1.0])) == 1.0
        assert ecdf([1.0]).ks_distance(ecdf([])) == 1.0
        assert ecdf([1.0, 2.0]).ks_distance(ecdf([1.0, 2.0])) == 0.0


# -- Ecdf properties --------------------------------------------------------------


class TestEcdfProperties:
    @given(
        st.lists(tie_prone_floats, min_size=1, max_size=40),
        st.one_of(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            # Exact lattice points k/n — the boundary cases where a
            # naive ceil() formulation goes one index wrong.
            st.tuples(
                st.integers(min_value=0, max_value=20),
                st.integers(min_value=1, max_value=20),
            ).map(lambda t: min(t[0] / t[1], 1.0)),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_quantile_is_smallest_value_reaching_q(self, sample, q):
        curve = ecdf(sample)
        oracle = next(v for v in curve.values if curve.at(v) >= q)
        assert curve.quantile(q) == oracle

    def test_quantile_rejects_bad_input(self):
        curve = ecdf([1.0, 2.0])
        with pytest.raises(ValueError):
            curve.quantile(1.5)
        with pytest.raises(ValueError):
            ecdf([]).quantile(0.5)

    @given(st.lists(tie_prone_floats, min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_series_dedupes_ties_and_closes_at_one(self, sample):
        curve = ecdf(sample)
        pairs = curve.series(points=10)
        xs = [x for x, _ in pairs]
        fs = [f for _, f in pairs]
        # Strictly increasing x (tied sample values collapse to one
        # point), consistent F, and the curve closes at (max, 1.0).
        assert xs == sorted(set(xs))
        assert fs == [curve.at(x) for x in xs]
        assert pairs[-1] == (curve.values[-1], 1.0)

    def test_ecdf_rejects_unsorted_values(self):
        with pytest.raises(ValueError):
            Ecdf(values=(2.0, 1.0))
