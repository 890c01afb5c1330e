"""k-shingling and Jaccard similarity (Broder et al., 1997).

A *k-shingle* is a contiguous sequence of k tokens; a document's
shingle set characterises its content robustly against small local
edits. The paper declares a URL broken when the shingle similarity
between its response and a random sibling's response exceeds 99%
(§3), allowing for the fact that two fetches of even the same page can
differ slightly (timestamps, ads, request ids).
"""

from __future__ import annotations

import functools
import re
import zlib
from array import array
from itertools import chain

from ..numerics import np

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: Maps every ASCII character outside [a-z0-9] to a space, so ASCII
#: text tokenizes with translate+split (~3x faster than the regex
#: scan) while producing the identical token list.
_ASCII_TO_SPACE = str.maketrans({
    chr(c): " "
    for c in range(128)
    if not ("a" <= chr(c) <= "z" or "0" <= chr(c) <= "9")
})

DEFAULT_K = 4


def tokenize(text: str) -> list[str]:
    """Lowercased alphanumeric tokens of ``text``.

    ASCII text — the overwhelmingly common case on this hot path —
    takes the translate+split fast lane; anything else falls back to
    the regex, which defines the token contract. The two agree exactly
    on ASCII input (maximal ``[a-z0-9]+`` runs of the lowercased
    text), pinned by the differential tests.
    """
    if text.isascii():
        return text.lower().translate(_ASCII_TO_SPACE).split()
    return _TOKEN_RE.findall(text.lower())


def shingle_set(text: str, k: int = DEFAULT_K) -> frozenset[tuple[str, ...]]:
    """The set of k-token shingles of ``text``.

    Documents shorter than ``k`` tokens yield their single truncated
    token tuple, so that trivially short pages (error stubs) still
    compare sensibly.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    tokens = tokenize(text)
    if not tokens:
        return frozenset()
    if len(tokens) < k:
        return frozenset({tuple(tokens)})
    return frozenset(
        tuple(tokens[i: i + k]) for i in range(len(tokens) - k + 1)
    )


def jaccard(a: frozenset, b: frozenset) -> float:
    """Jaccard similarity |a ∩ b| / |a ∪ b|; empty-vs-empty is 1.0."""
    if not a and not b:
        return 1.0
    union = len(a | b)
    if union == 0:
        return 1.0
    return len(a & b) / union


def shingle_similarity(text_a: str, text_b: str, k: int = DEFAULT_K) -> float:
    """Jaccard similarity of the k-shingle sets of two documents."""
    return jaccard(shingle_set(text_a, k), shingle_set(text_b, k))


def shingle_similarity_batch(
    pairs: list[tuple[str, str]], k: int = DEFAULT_K
) -> list[float]:
    """Exact k-shingle Jaccard similarity for each ``(text_a, text_b)``.

    Value-identical to :func:`shingle_similarity` per pair. The §3
    soft-404 screen calls it once per study with every undecided
    (body, random-sibling body) pair; boilerplate bodies repeat across
    pairs, so each distinct text is shingled once per batch. Runs on
    numpy when it is installed (:func:`_shingle_similarity_batch_np`),
    else on memoised :func:`shingle_set` / :func:`jaccard`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if np is not None and pairs:
        return _shingle_similarity_batch_np(pairs, k)
    return _shingle_similarity_batch_py(pairs, k)


def _shingle_similarity_batch_py(
    pairs: list[tuple[str, str]], k: int
) -> list[float]:
    """The batch as :func:`jaccard` over one :func:`shingle_set` per
    distinct text."""
    sets: dict[str, frozenset] = {}

    def shingles_of(text: str) -> frozenset:
        found = sets.get(text)
        if found is None:
            found = sets[text] = shingle_set(text, k)
        return found

    return [jaccard(shingles_of(a), shingles_of(b)) for a, b in pairs]


def _sorted_distinct(values):
    """The distinct values of a non-empty array, ascending.

    A sort and a neighbour mask: for uint64 keys this is many times
    faster than ``np.unique`` on numpy 2.x.
    """
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _shingle_similarity_batch_np(
    pairs: list[tuple[str, str]], k: int
) -> list[float]:
    """The (non-empty) batch on uint64 arrays, exact, not estimated.

    Tokens get dense ids from a per-batch vocabulary and each k-shingle
    packs its k digits (``id + 1``; 0 pads sub-k documents) into one
    base-``vocab+1`` integer. The packing is injective while
    ``(vocab+1)**k <= 2**64``, so shingle-set sizes, and the Jaccard
    values, equal :func:`shingle_set`'s; a batch past that bound takes
    :func:`_shingle_similarity_batch_py` instead. Every window of every
    distinct document comes from k strided operations over one
    concatenated array, and one sort yields all per-document sets.
    """
    # Distinct documents, and per pair the ids of its two documents.
    docs: dict[str, int] = {}
    refs = [
        (docs.setdefault(a, len(docs)), docs.setdefault(b, len(docs)))
        for a, b in pairs
    ]
    vocab: dict[str, int] = {}
    token_id = vocab.setdefault
    ids = [
        [token_id(token, len(vocab)) for token in tokenize(text)]
        for text in docs
    ]
    base = len(vocab) + 1
    span = base ** k
    if span > 1 << 64:
        return _shingle_similarity_batch_py(pairs, k)

    lengths = [len(doc) for doc in ids]
    concat = np.fromiter(
        chain.from_iterable(ids), dtype=np.uint64, count=sum(lengths)
    ) + np.uint64(1)
    # Flat start index of every in-document window, documents in order.
    counts = np.maximum(np.asarray(lengths, dtype=np.int64) - (k - 1), 0)
    starts = np.cumsum(lengths, dtype=np.int64) - lengths
    positions = (
        np.arange(int(counts.sum()), dtype=np.int64)
        - np.repeat(np.cumsum(counts) - counts, counts)
        + np.repeat(starts, counts)
    )
    codes = concat[positions]
    for offset in range(1, k):
        codes = codes * np.uint64(base) + concat[positions + offset]

    # Sorted distinct codes per distinct document. Documents shorter
    # than k hold their single truncated shingle; empty ones nothing.
    n_docs = len(ids)
    sets: list = [np.zeros(0, dtype=np.uint64)] * n_docs
    if codes.size and span < 1 << 64 and n_docs * span <= 1 << 64:
        # Codes are in [1, span): with the owning document in the sort
        # key, one global sort gives every document's set at once.
        owner = np.repeat(np.arange(n_docs, dtype=np.uint64), counts)
        keys = _sorted_distinct(owner * np.uint64(span) + codes)
        bounds = np.searchsorted(
            keys, np.arange(n_docs, dtype=np.uint64) * np.uint64(span)
        ).tolist() + [keys.size]
        keys %= np.uint64(span)
        for doc in range(n_docs):
            if bounds[doc + 1] > bounds[doc]:
                sets[doc] = keys[bounds[doc]: bounds[doc + 1]]
    else:
        offset = 0
        for doc, windows in enumerate(counts.tolist()):
            if windows:
                sets[doc] = _sorted_distinct(codes[offset: offset + windows])
                offset += windows
    for doc, n in enumerate(lengths):
        if 0 < n < k:
            code = 0
            for digit in ids[doc]:
                code = code * base + digit + 1
            sets[doc] = np.asarray(
                [code * base ** (k - n)], dtype=np.uint64
            )

    out: list[float] = []
    for ia, ib in refs:
        if ia == ib:
            # J(S, S) == 1.0, including the empty-vs-empty convention.
            out.append(1.0)
            continue
        a, b = sets[ia], sets[ib]
        if a.size > b.size:
            a, b = b, a
        if not a.size:
            out.append(1.0 if not b.size else 0.0)
            continue
        # Intersection size of two sorted distinct arrays: insertion
        # points of the smaller into the larger, then equality.
        found = np.searchsorted(b, a)
        inside = found < b.size
        inter = int((b[found[inside]] == a[inside]).sum())
        # Python int division keeps every value bit-identical to
        # shingle_similarity.
        out.append(inter / (a.size + b.size - inter))
    return out


# -- MinHash sketches ---------------------------------------------------------
#
# Archived snapshots cannot store full bodies at simulation scale, so
# the crawler records a MinHash sketch — the standard compact estimator
# of shingle-set Jaccard similarity (also from Broder's line of work).
# The study only needs to distinguish "near-identical boilerplate"
# (similarity ~1) from "distinct documents" (similarity ~0), for which
# a small number of hash functions suffices.
#
# Sketching runs on numpy when it is installed (0.16 ms against 5.8 ms
# per 900-token page) and on a pure-Python mirror otherwise. The two
# produce bit-identical sketches — the pure path applies the same
# multiply/xor/rotate pipeline in masked 64-bit arithmetic — so an
# archive built without numpy matches one built with it.

NUM_MINHASHES = 16

MASK64 = (1 << 64) - 1
#: Fixed odd multipliers/xors defining the hash family; arbitrary
#: constants chosen once so sketches are stable across runs.
PERMUTE_MULTIPLIERS = tuple(
    (0x9E3779B97F4A7C15 * (2 * i + 1)) & MASK64 for i in range(NUM_MINHASHES)
)
PERMUTE_XORS = tuple(
    (0xC2B2AE3D27D4EB4F * (i + 1)) & MASK64 for i in range(NUM_MINHASHES)
)

#: Per-offset multipliers mixing the k token hashes into one shingle
#: hash (shared verbatim by the numpy and pure-Python paths); grown on
#: demand for any k.
_SHINGLE_MULTIPLIERS: list[int] = []


def _shingle_multipliers(k: int) -> list[int]:
    while len(_SHINGLE_MULTIPLIERS) < k:
        offset = len(_SHINGLE_MULTIPLIERS)
        _SHINGLE_MULTIPLIERS.append(
            (0x9E3779B97F4A7C15 * (2 * offset + 3)) & MASK64
        )
    return _SHINGLE_MULTIPLIERS

#: Token-hash memo bound. Page text draws from a small per-site
#: vocabulary, so in practice the cache converges far below this; the
#: bound exists so a long crawl over many worlds (or a long-lived
#: process) cannot grow it without limit. crc32 is pure, so
#: clearing the memo never changes a sketch.
TOKEN_CACHE_MAX = 1 << 16

_token_hash_cache: dict[str, int] = {}


def _token_hashes(tokens: list[str]) -> list[int]:
    """Stable crc32 per token, memoised in a bounded cache."""
    cache = _token_hash_cache
    values = list(map(cache.get, tokens))
    if None not in values:
        # Every token seen before: page text draws from a small
        # vocabulary, so this is the common case.
        return values
    if len(cache) >= TOKEN_CACHE_MAX:
        cache.clear()
    values = []
    for token in tokens:
        value = cache.get(token)
        if value is None:
            value = zlib.crc32(token.encode("utf-8"))
            cache[token] = value
        values.append(value)
    return values


def shingle_hash_values(tokens: list[str], k: int) -> list[int]:
    """One mixed 64-bit hash per k-shingle of ``tokens`` (pure Python).

    Reference implementation of the mixing pipeline; the numpy path
    (:func:`shingle_hash_vector`) applies the identical operations
    lane-wise and is proven bit-identical by the differential tests.
    """
    hashes = _token_hashes(tokens)
    if len(tokens) < k:
        k = len(tokens)
    mults = _shingle_multipliers(k)
    out = []
    for start in range(len(tokens) - k + 1):
        mixed = 0
        for offset in range(k):
            mixed = (mixed ^ (hashes[start + offset] * mults[offset])) & MASK64
            mixed = ((mixed << 7) | (mixed >> 57)) & MASK64
        out.append(mixed)
    return out


@functools.cache
def _numpy_family(k: int) -> tuple:
    """numpy forms of the hash-family constants for ``k``-shingles:
    ``(7, 57, shingle multipliers, permutation multipliers, xors)``.

    Built on first use, not at import (import time is start-up time);
    one entry per ``k`` in use.
    """
    return (
        np.uint64(7),
        np.uint64(57),
        tuple(np.uint64(m) for m in _shingle_multipliers(k)[:k]),
        np.asarray(PERMUTE_MULTIPLIERS, dtype=np.uint64)[:, None],
        np.asarray(PERMUTE_XORS, dtype=np.uint64)[:, None],
    )


def shingle_hash_vector(tokens: list[str], k: int):
    """Vector of 64-bit hashes, one per k-shingle of ``tokens`` (numpy).

    Only callable when numpy is installed; :func:`shingle_hash_values`
    is the pure-Python twin. Array integer arithmetic wraps modulo
    2**64 without overflow checks, which is the masking the pure path
    spells out.
    """
    hashes = np.frombuffer(array("Q", _token_hashes(tokens)), dtype=np.uint64)
    if len(tokens) < k:
        k = len(tokens)
    seven, fifty_seven, mults, _, _ = _numpy_family(k)
    width = len(tokens) - k + 1
    mixed = np.zeros(width, dtype=np.uint64)
    for offset in range(k):
        mixed ^= hashes[offset: width + offset] * mults[offset]
        carry = mixed >> fifty_seven
        mixed <<= seven
        mixed |= carry
    return mixed


def _minhash_py(tokens: list[str], k: int) -> tuple[int, ...]:
    """Pure-Python MinHash over the unique shingle hashes."""
    unique = set(shingle_hash_values(tokens, k))
    return tuple(
        min(((value ^ x) * m) & MASK64 for value in unique)
        for m, x in zip(PERMUTE_MULTIPLIERS, PERMUTE_XORS)
    )


def _minhash_np(tokens: list[str], k: int) -> tuple[int, ...]:
    """Vectorised MinHash over the shingle hashes.

    Repeated shingles are not removed first: a minimum over a multiset
    equals the minimum over its set, so the sketch is the same.
    """
    shingle_hashes = shingle_hash_vector(tokens, k)
    _, _, _, mults, xors = _numpy_family(k)
    permuted = (shingle_hashes[None, :] ^ xors) * mults
    return tuple(permuted.min(axis=1).tolist())


def minhash_sketch(text: str, k: int = DEFAULT_K) -> tuple[int, ...]:
    """The MinHash sketch of ``text``'s k-shingle set.

    Empty documents sketch to all-zeros sentinel values so that two
    empty bodies compare as identical. The sketch is a pure function
    of the text — bit-identical with and without numpy.
    """
    tokens = tokenize(text)
    if not tokens:
        return (0,) * NUM_MINHASHES
    if np is None:
        return _minhash_py(tokens, k)
    return _minhash_np(tokens, k)


def sketch_similarity(a: tuple[int, ...], b: tuple[int, ...]) -> float:
    """Estimated Jaccard similarity from two MinHash sketches."""
    if len(a) != len(b) or not a:
        raise ValueError("sketches must be the same non-zero length")
    matches = sum(1 for x, y in zip(a, b) if x == y)
    return matches / len(a)
