"""Numpy backend for the columnar kernels.

Same values as :mod:`._stdlib_impl`, computed on uint64 arrays — and,
unlike a first-cut vectorization, computed *globally*: the whole batch
of documents is concatenated into one token-id (or token-hash) array,
every k-shingle window is produced by k strided vector operations over
that single array (windows straddling document boundaries are simply
never gathered), and set algebra happens as one sort over the entire
batch instead of one numpy call per pair. Per-document and per-pair
Python/numpy call overheads — which dominate at realistic document
sizes — are paid once per *batch*.

The module never imports numpy at module level — it is only dispatched
to when :func:`repro.numerics.get_numpy` is non-None.
"""

from __future__ import annotations

import zlib
from itertools import chain
from typing import Iterable, Sequence

from ...numerics import get_numpy
from ...textsim.shingles import (
    MASK64,
    NUM_MINHASHES,
    PERMUTE_MULTIPLIERS,
    PERMUTE_XORS,
    _shingle_multipliers,
)
from . import _stdlib_impl
from ._codec import dedup_texts, token_id_lists


def bucket_counts(labels: Iterable, order: Sequence = ()) -> dict:
    np = get_numpy()
    index: dict = {label: i for i, label in enumerate(order)}
    encoded: list[int] = []
    for label in labels:
        i = index.get(label)
        if i is None:
            i = len(index)
            index[label] = i
        encoded.append(i)
    counts = np.bincount(
        np.asarray(encoded, dtype=np.int64), minlength=len(index)
    ) if encoded else np.zeros(len(index), dtype=np.int64)
    return {label: int(counts[i]) for label, i in index.items()}


def _window_layout(np, lengths, k: int):
    """Gather indices for every in-document window of a concatenation.

    Given per-document token counts, returns ``(positions, counts,
    offsets)``: flat indices into the concatenated array at which each
    document's windows start (documents in order, so windows form
    contiguous per-document segments), the number of windows per
    document (0 for documents shorter than ``k``), and the segment
    start offsets usable with ``np.minimum.reduceat``.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    counts = np.maximum(lengths - (k - 1), 0)
    doc_starts = np.concatenate(
        ([0], np.cumsum(lengths)[:-1])
    ) if lengths.size else np.zeros(0, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return (
            np.zeros(0, dtype=np.int64),
            counts,
            np.zeros(0, dtype=np.int64),
        )
    segment_starts = np.cumsum(counts) - counts
    positions = (
        np.arange(total, dtype=np.int64)
        - np.repeat(segment_starts, counts)
        + np.repeat(doc_starts, counts)
    )
    return positions, counts, segment_starts


def _packed_window_codes(np, concat_digits, positions, k: int, base: int):
    """Base-``base`` packing of each gathered k-window, in uint64.

    Valid because the caller guarantees ``base ** k <= 2**64``: every
    intermediate partial code is below ``base ** k``, so uint64
    wraparound never occurs on in-document windows.
    """
    codes = concat_digits[positions]
    scale = np.uint64(base)
    for offset in range(1, k):
        codes = codes * scale + concat_digits[positions + offset]
    return codes


def _pack_short_doc(ids: list[int], k: int, base: int) -> int:
    """The single truncated-shingle code of a sub-k document."""
    code = 0
    for digit in ids:
        code = code * base + digit + 1
    return code * base ** (k - len(ids))


def shingle_similarity_batch(
    pairs: Sequence[tuple[str, str]], k: int
) -> list[float]:
    np = get_numpy()
    if not pairs:
        return []
    texts, refs = dedup_texts(pairs)
    vocab: dict[str, int] = {}
    ids = token_id_lists(texts, vocab)
    base = len(vocab) + 1
    if k > 64 or base ** k > 1 << 64:
        # uint64 packing would no longer be injective; take the
        # arbitrary-precision path rather than approximate.
        return _stdlib_impl.shingle_similarity_batch(pairs, k)

    lengths = [len(doc) for doc in ids]
    concat = np.fromiter(
        chain.from_iterable(ids), dtype=np.uint64, count=sum(lengths)
    ) + np.uint64(1)
    positions, counts, _ = _window_layout(np, lengths, k)
    codes = _packed_window_codes(np, concat, positions, k, base)

    # Sorted distinct codes per distinct document. Documents shorter
    # than k contribute their single truncated-shingle code; empty
    # documents the empty set.
    n_docs = len(texts)
    empty = np.zeros(0, dtype=np.uint64)
    sets: list = [empty] * n_docs
    span = base ** k
    if span < 1 << 64 and n_docs * span <= 1 << 64 and codes.size:
        # Embed the owning document in the sort key (codes are in
        # [1, span)): one global sort plus a duplicate mask yields
        # every document's sorted distinct codes at once, instead of
        # one np.unique call per document.
        doc_of_window = np.repeat(np.arange(n_docs, dtype=np.uint64), counts)
        key = np.sort(doc_of_window * np.uint64(span) + codes)
        keep = np.empty(key.size, dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        uniq = key[keep]
        bounds = np.searchsorted(
            uniq, np.arange(n_docs, dtype=np.uint64) * np.uint64(span)
        ).tolist() + [uniq.size]
        uniq %= np.uint64(span)
        for doc in range(n_docs):
            if bounds[doc + 1] > bounds[doc]:
                sets[doc] = uniq[bounds[doc]: bounds[doc + 1]]
    else:
        offset = 0
        for doc, windows in enumerate(counts.tolist()):
            if windows:
                sets[doc] = np.unique(codes[offset: offset + windows])
                offset += windows
    for doc, n in enumerate(lengths):
        if 0 < n < k:
            sets[doc] = np.asarray(
                [_pack_short_doc(ids[doc], k, base)], dtype=np.uint64
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
        # Python int division keeps every value bit-identical to the
        # per-pair reference.
        out.append(inter / (a.size + b.size - inter))
    return out


def minhash_sketch_batch(
    texts: Sequence[str], k: int
) -> list[tuple[int, ...]]:
    np = get_numpy()
    if not texts:
        return []
    # Sketches are pure functions of the text: distinct documents
    # sketch once, repeats are looked up.
    index: dict[str, int] = {}
    unique: list[str] = []
    refs: list[int] = []
    for text in texts:
        uid = index.get(text)
        if uid is None:
            uid = index[text] = len(unique)
            unique.append(text)
        refs.append(uid)
    texts = unique
    vocab: dict[str, int] = {}
    ids = token_id_lists(texts, vocab)
    # crc32 once per distinct token, then a vectorised gather — the
    # scalar path's per-occurrence memo probe, amortised batch-wide.
    vocab_hashes = np.fromiter(
        (zlib.crc32(token.encode("utf-8")) for token in vocab),
        dtype=np.uint64,
        count=len(vocab),
    )
    lengths = [len(doc) for doc in ids]
    concat = vocab_hashes[
        np.fromiter(
            chain.from_iterable(ids), dtype=np.int64, count=sum(lengths)
        )
    ] if sum(lengths) else np.zeros(0, dtype=np.uint64)
    positions, counts, _ = _window_layout(np, lengths, k)

    # Mix every full-width window in one pass over the concatenation
    # (the same multiply/xor/rotate pipeline as shingle_hash_vector,
    # so sketches stay bit-identical to the scalar path). Windows are
    # gathered per document afterwards; duplicates within a document
    # are harmless because min() ignores multiplicity.
    mults = _shingle_multipliers(k)
    window_hashes = np.zeros(positions.size, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for offset in range(k):
            lane = concat[positions + offset]
            window_hashes ^= lane * np.uint64(mults[offset])
            window_hashes = (window_hashes << np.uint64(7)) | (
                window_hashes >> np.uint64(57)
            )

    sketches: list[tuple[int, ...] | None] = [None] * len(texts)
    full = np.flatnonzero(counts)
    if full.size:
        seg_offsets = (np.cumsum(counts) - counts)[full]
        per_doc_mins = np.empty((NUM_MINHASHES, full.size), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for row, (mult, xor) in enumerate(
                zip(PERMUTE_MULTIPLIERS, PERMUTE_XORS)
            ):
                permuted = (window_hashes ^ np.uint64(xor)) * np.uint64(mult)
                per_doc_mins[row] = np.minimum.reduceat(permuted, seg_offsets)
        columns = per_doc_mins.T.tolist()
        for doc, column in zip(full.tolist(), columns):
            sketches[doc] = tuple(column)

    doc_start = 0
    for doc, n in enumerate(lengths):
        doc_start += lengths[doc - 1] if doc else 0
        if n == 0:
            sketches[doc] = (0,) * NUM_MINHASHES
        elif n < k:
            # Sub-k documents sketch their single truncated shingle,
            # mixed exactly as shingle_hash_values(tokens, n) does.
            hashes = concat[doc_start: doc_start + n].tolist()
            short_mults = _shingle_multipliers(n)
            mixed = 0
            for offset in range(n):
                mixed = (mixed ^ (hashes[offset] * short_mults[offset])) & MASK64
                mixed = ((mixed << 7) | (mixed >> 57)) & MASK64
            sketches[doc] = tuple(
                ((mixed ^ x) * m) & MASK64
                for m, x in zip(PERMUTE_MULTIPLIERS, PERMUTE_XORS)
            )
    return [sketches[uid] for uid in refs]  # type: ignore[misc]


def sketch_similarity_batch(
    pairs: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
) -> list[float]:
    np = get_numpy()
    if not pairs:
        return []
    width = len(pairs[0][0])
    if width == 0 or any(
        len(a) != width or len(b) != width for a, b in pairs
    ):
        # Ragged or empty sketches: defer to the scalar path so the
        # ValueError contract matches exactly.
        return _stdlib_impl.sketch_similarity_batch(pairs)
    left = np.asarray([a for a, _ in pairs], dtype=np.uint64)
    right = np.asarray([b for _, b in pairs], dtype=np.uint64)
    matches = (left == right).sum(axis=1)
    return [int(m) / width for m in matches]
