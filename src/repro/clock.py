"""Simulated time for the measurement study.

The paper's analysis is fundamentally temporal: links are added to
Wikipedia, stop working, get crawled by the Wayback Machine, and are
marked permanently dead — all at different points over a ~20-year span.
We model time as **days since 2000-01-01** (the simulation epoch),
stored as a float so sub-day ordering (e.g. "archived the same day the
link was posted, but after it broke") is expressible.

:class:`SimTime` is an immutable value type; :class:`SimClock` is a
monotonic clock that simulation components share.
"""

from __future__ import annotations

import datetime as _dt
import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import ClockError

#: The calendar date corresponding to simulated time zero.
EPOCH = _dt.date(2000, 1, 1)

_DAYS_PER_YEAR = 365.2425


@functools.total_ordering
@dataclass(frozen=True, slots=True)
class SimTime:
    """A point in simulated time, measured in days since :data:`EPOCH`."""

    days: float

    def __post_init__(self) -> None:
        if not isinstance(self.days, (int, float)):
            raise ClockError(f"SimTime days must be numeric, got {type(self.days)!r}")
        object.__setattr__(self, "days", float(self.days))

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_date(cls, date: _dt.date) -> "SimTime":
        """Build a SimTime from a calendar date (midnight)."""
        return cls(float((date - EPOCH).days))

    @classmethod
    def from_ymd(cls, year: int, month: int, day: int = 1) -> "SimTime":
        """Build a SimTime from year/month/day integers."""
        return cls.from_date(_dt.date(year, month, day))

    @classmethod
    def from_year(cls, year: float) -> "SimTime":
        """Build a SimTime from a (possibly fractional) calendar year."""
        whole = int(year)
        frac = year - whole
        start = cls.from_date(_dt.date(whole, 1, 1))
        return cls(start.days + frac * _DAYS_PER_YEAR)

    # -- conversions -----------------------------------------------------------

    def to_date(self) -> _dt.date:
        """The calendar date containing this instant."""
        return EPOCH + _dt.timedelta(days=int(self.days))

    @property
    def year(self) -> int:
        """Calendar year of this instant."""
        return self.to_date().year

    def fractional_year(self) -> float:
        """Calendar year as a float, for plotting CDFs over time."""
        date = self.to_date()
        start = SimTime.from_date(_dt.date(date.year, 1, 1))
        return date.year + (self.days - start.days) / _DAYS_PER_YEAR

    def isoformat(self) -> str:
        """ISO date string of the day containing this instant."""
        return self.to_date().isoformat()

    # -- arithmetic ------------------------------------------------------------

    def plus_days(self, days: float) -> "SimTime":
        """A new instant ``days`` later (negative moves earlier)."""
        return SimTime(self.days + days)

    def minus_days(self, days: float) -> "SimTime":
        """A new instant ``days`` earlier."""
        return SimTime(self.days - days)

    def days_until(self, other: "SimTime") -> float:
        """Signed number of days from this instant to ``other``."""
        return other.days - self.days

    def days_since(self, other: "SimTime") -> float:
        """Signed number of days elapsed since ``other``."""
        return self.days - other.days

    def same_day(self, other: "SimTime") -> bool:
        """Whether both instants fall on the same calendar day."""
        return int(self.days) == int(other.days)

    # -- ordering ---------------------------------------------------------------

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, SimTime):
            return NotImplemented
        return self.days < other.days

    def __repr__(self) -> str:
        return f"SimTime({self.days:.3f}, {self.isoformat()})"


def first_after(at: SimTime, instants: Iterable[SimTime | None]) -> float:
    """Day number of the earliest of ``instants`` strictly after ``at``.

    ``None`` entries are skipped; ``math.inf`` when none is later. The
    web model's freshness horizons are built from this.
    """
    days = at.days
    until = math.inf
    for instant in instants:
        if instant is not None and days < instant.days < until:
            until = instant.days
    return until


#: Convenient aliases used throughout the simulation.
STUDY_TIME = SimTime.from_ymd(2022, 3, 15)
RANDOM_SAMPLE_TIME = SimTime.from_ymd(2022, 9, 15)
WAYBACK_START = SimTime.from_ymd(2001, 10, 1)
WIKIPEDIA_START = SimTime.from_ymd(2004, 1, 1)
WNRT_START = SimTime.from_ymd(2013, 1, 1)
EVENTSTREAM_START = SimTime.from_ymd(2018, 6, 1)


class SimClock:
    """A monotonic simulated clock shared by simulation components.

    The clock only moves forward; attempting to rewind raises
    :class:`~repro.errors.ClockError`. Components that need "what time
    is it" semantics (bots, crawlers) hold a reference to the clock,
    while pure functions take an explicit ``at: SimTime`` argument.
    """

    def __init__(self, start: SimTime | None = None) -> None:
        self._now = start if start is not None else SimTime(0.0)

    @property
    def now(self) -> SimTime:
        """The current simulated instant."""
        return self._now

    def advance(self, days: float) -> SimTime:
        """Move the clock forward by ``days`` and return the new instant."""
        if days < 0:
            raise ClockError(f"cannot advance clock by negative days ({days})")
        self._now = self._now.plus_days(days)
        return self._now

    def advance_to(self, instant: SimTime) -> SimTime:
        """Move the clock forward to ``instant``.

        Raises :class:`~repro.errors.ClockError` if ``instant`` is in
        the past, because simulation components assume events are
        processed in order.
        """
        if instant < self._now:
            raise ClockError(
                f"cannot rewind clock from {self._now} to {instant}"
            )
        self._now = instant
        return self._now

    def __repr__(self) -> str:
        return f"SimClock(now={self._now})"
