"""Edit distance over URL strings, for typo detection (§5.2).

The paper deems a permanently dead link a potential typo *"if there
exists only one archived URL with an edit distance of exactly 1"* under
the same domain. :func:`edit_distance` is the Levenshtein distance
(insert / delete / substitute, unit costs) as a dynamic program; the
typo scan never runs it. Scanning a domain's archived URL inventory
only asks whether a candidate is *exactly one* edit away, which
:func:`one_edit_apart` answers in linear time with no dynamic program.
"""

from __future__ import annotations

from collections.abc import Iterable


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance between two strings.

    Classic two-row dynamic program; O(len(a) * len(b)) time,
    O(min(len)) space.
    """
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, start=1):
        current = [i]
        for j, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(
                min(
                    previous[j] + 1,      # deletion from a
                    current[j - 1] + 1,   # insertion into a
                    previous[j - 1] + cost,  # substitution
                )
            )
        previous = current
    return previous[-1]


def one_edit_apart(a: str, b: str) -> bool:
    """Whether ``edit_distance(a, b) == 1``, in O(len) time.

    Distinct strings are one edit apart exactly when their lengths
    differ by at most one and, past their common prefix, the rest
    matches once the first differing character is dropped: from both
    strings when the lengths are equal (a substitution), from the
    longer one otherwise (an insertion or deletion). The common prefix
    is found by bisection over slice comparisons, which run in C.
    """
    if len(a) < len(b):
        a, b = b, a
    longer = len(a) - len(b)
    if longer > 1 or a == b:
        return False
    lo, hi = 0, len(b)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a.startswith(b[:mid]):
            lo = mid
        else:
            hi = mid - 1
    return a[lo + 1:] == b[lo + 1 - longer:]


def unique_neighbor(target: str, candidates: Iterable[str]) -> str | None:
    """The single candidate exactly one edit from ``target``, if unique.

    Returns ``None`` when zero or more than one candidate is one edit
    away — the paper's criterion for flagging a typo only when the
    correction is unambiguous. ``target`` itself is never a neighbour.
    """
    found: str | None = None
    for candidate in candidates:
        if one_edit_apart(target, candidate):
            if found is not None:
                return None
            found = candidate
    return found
