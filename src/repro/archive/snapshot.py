"""One archived capture of one URL.

A snapshot records what the crawler observed at capture time: the
*initial* status (the response for the URL itself, before any
redirect), the redirect target if the initial response was a 3xx, the
*final* status and URL after the crawler followed redirects, and a
MinHash sketch of the final body. This mirrors the fields the paper
reads from the Wayback Machine: "for every archived copy, we logged
the timestamp at which it was captured and the initial HTTP status
code associated with that copy" (§2.4), plus the redirect targets
needed for §4.2.

Full bodies are not retained (the real Wayback stores them, but our
analyses only ever compare content similarity, for which the sketch
suffices at a tiny fraction of the memory).

Only the archived-copy boilerplate check ever reads a sketch, so a
capture records a :class:`PendingSketch` and MinHash runs the first
time :attr:`Snapshot.sketch` is read.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..clock import SimTime
from ..net.status import is_redirect, is_success
from ..textsim.content import PageCore
from ..textsim.shingles import minhash_sketch


class PendingSketch:
    """The MinHash sketch of one body stem, computed when first read.

    ``key`` names the stem: a generated page's
    :class:`~repro.textsim.content.PageCore`, rendered only on
    resolve, or a literal body's stem text. The crawler's sketcher
    hands every capture of a stem the same instance, so MinHash runs
    at most once per stem. An unresolved instance pickles as its key
    (never as page text, never with the sketcher's memo); a resolved
    one pickles as its tuple.
    """

    __slots__ = ("key", "_value")

    def __init__(self, key: str | PageCore) -> None:
        self.key = key
        self._value: tuple[int, ...] | None = None

    def resolve(self) -> tuple[int, ...]:
        """The sketch, computed on the first call."""
        value = self._value
        if value is None:
            key = self.key
            value = self._value = minhash_sketch(
                key if type(key) is str else key.text()
            )
        return value

    def __reduce__(self):
        if self._value is not None:
            return tuple, (self._value,)
        return PendingSketch, (self.key,)


#: What one capture observed: ``(initial_status, redirect_location,
#: final_status, final_url, sketch)``, the fields of a
#: :class:`Snapshot` after its URL and capture instant. ``sketch`` may
#: be a :class:`PendingSketch`.
Observation = tuple[
    int | None, str | None, int | None, str | None,
    tuple[int, ...] | PendingSketch,
]


def check_observation(
    url: str, initial_status: int | None, redirect_location: str | None
) -> None:
    """Raise ``ValueError`` for a 3xx capture of ``url`` that names no
    redirect target."""
    if (
        initial_status is not None
        and is_redirect(initial_status)
        and not redirect_location
    ):
        raise ValueError(f"3xx snapshot of {url!r} needs redirect_location")


@dataclass(frozen=True, slots=True)
class Snapshot:
    """An archived copy of ``url`` captured at ``captured_at``.

    Attributes:
        url: the captured URL (exactly as requested).
        captured_at: capture instant.
        initial_status: HTTP status of the first response, or ``None``
            when the capture attempt failed at the transport level
            (DNS failure / connect timeout) — the real Wayback records
            such attempts sparsely; we keep them for fidelity but all
            read APIs skip them by default.
        redirect_location: ``Location`` of the initial response when it
            was a redirect.
        final_status: status after the crawler followed redirects
            (equals ``initial_status`` when there was no redirect).
        final_url: URL of the final response.
        sketch: MinHash sketch of the final response body. The
            constructor also takes a :class:`PendingSketch`; reading
            the attribute resolves it and keeps the tuple in its place,
            so equality, hashing and ``repr`` see the resolved value.
    """

    url: str
    captured_at: SimTime
    initial_status: int | None
    redirect_location: str | None = None
    final_status: int | None = None
    final_url: str | None = None
    sketch: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        check_observation(self.url, self.initial_status, self.redirect_location)

    @property
    def failed(self) -> bool:
        """True when the capture never got an HTTP response."""
        return self.initial_status is None

    @property
    def initial_ok(self) -> bool:
        """Initial status 200 — IABot's bar for a usable copy."""
        return self.initial_status == 200

    @property
    def initial_redirected(self) -> bool:
        """Initial status was a 3xx."""
        return self.initial_status is not None and is_redirect(self.initial_status)

    @property
    def looks_erroneous_by_status(self) -> bool:
        """Erroneous judging by status codes alone (no content check).

        4xx/5xx initially, a redirect whose final hop was not a
        success, or a transport failure.
        """
        if self.initial_status is None:
            return True
        if self.initial_ok:
            return False
        if self.initial_redirected:
            return self.final_status is None or not is_success(self.final_status)
        return True

    def describe(self) -> str:
        """One-line summary, e.g. ``2014-03-02 302 -> http://.../index.htm``."""
        stamp = self.captured_at.isoformat()
        if self.initial_status is None:
            return f"{stamp} <capture failed>"
        if self.initial_redirected:
            return f"{stamp} {self.initial_status} -> {self.redirect_location}"
        return f"{stamp} {self.initial_status}"


#: Each field's own slot descriptor, in field order. Pickling goes
#: through these, so it never resolves a pending sketch.
_SLOTS = tuple(Snapshot.__dict__[field.name] for field in fields(Snapshot))
#: The ``sketch`` slot's descriptor, which ``Snapshot.sketch`` wraps.
_SKETCH_SLOT = Snapshot.__dict__["sketch"]


def _read_sketch(snapshot: Snapshot) -> tuple[int, ...]:
    """``Snapshot.sketch``: resolves a pending sketch when it is read."""
    value = _SKETCH_SLOT.__get__(snapshot)
    if type(value) is PendingSketch:
        value = value.resolve()
        _SKETCH_SLOT.__set__(snapshot, value)
    return value


def _getstate(snapshot: Snapshot) -> tuple:
    # The raw slots: a pending sketch is pickled unresolved.
    return tuple(slot.__get__(snapshot) for slot in _SLOTS)


def observation_of(snapshot: Snapshot) -> Observation:
    """What ``snapshot`` observed, its sketch left unresolved."""
    return _getstate(snapshot)[2:]


def _setstate(snapshot: Snapshot, state: tuple) -> None:
    for slot, value in zip(_SLOTS, state):
        slot.__set__(snapshot, value)


Snapshot.sketch = property(_read_sketch, _SKETCH_SLOT.__set__)
# Attached after the decorator: on Python 3.10 and early 3.11 releases,
# ``dataclass(frozen=True, slots=True)`` replaces a class's own pickle
# methods with ones that read every field through ``getattr``, which
# would resolve the sketch.
Snapshot.__getstate__ = _getstate
Snapshot.__setstate__ = _setstate
