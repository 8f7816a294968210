"""Simulation calendar utilities.

The reproduction replays the paper's timeline: dataset ``D`` spans the
calendar year 2015; probe campaign A1 runs in May 2016 and A2 in June
2016.  All simulated events are stamped with Unix epoch seconds; the
helpers here convert between epoch seconds and the calendar fields the
feature extractor needs (month, day-of-week, time-of-day bucket).

Times are treated as local time of the observed population (the paper's
users are in one country), so no timezone conversion is applied.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

SECONDS_PER_DAY = 86_400

#: Six four-hour buckets used by the paper's Figure 6.
TIME_OF_DAY_BUCKETS = (
    "00:00-03:00",
    "04:00-07:00",
    "08:00-11:00",
    "12:00-15:00",
    "16:00-19:00",
    "20:00-23:00",
)

DAY_NAMES = (
    "Monday",
    "Tuesday",
    "Wednesday",
    "Thursday",
    "Friday",
    "Saturday",
    "Sunday",
)


def epoch(year: int, month: int, day: int, hour: int = 0, minute: int = 0,
          second: int = 0) -> float:
    """Unix timestamp for a calendar instant (UTC-naive, as local time)."""
    moment = dt.datetime(year, month, day, hour, minute, second,
                         tzinfo=dt.timezone.utc)
    return moment.timestamp()


def from_epoch(ts: float) -> dt.datetime:
    """Inverse of :func:`epoch`."""
    return dt.datetime.fromtimestamp(ts, tz=dt.timezone.utc)


def month_of(ts: float) -> int:
    """Calendar month (1-12) of a timestamp."""
    return from_epoch(ts).month


def year_of(ts: float) -> int:
    """Calendar year of a timestamp."""
    return from_epoch(ts).year


def hour_of(ts: float) -> int:
    """Hour of day (0-23) of a timestamp."""
    return from_epoch(ts).hour


def day_of_week(ts: float) -> int:
    """Day of week of a timestamp: Monday=0 ... Sunday=6."""
    return from_epoch(ts).weekday()


def is_weekend(ts: float) -> bool:
    """True when the timestamp falls on Saturday or Sunday."""
    return day_of_week(ts) >= 5


@dataclass(frozen=True)
class Period:
    """A half-open time interval ``[start, end)`` in epoch seconds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"Period end {self.end} precedes start {self.start}")

    @classmethod
    def for_year(cls, year: int) -> "Period":
        """The whole calendar year."""
        return cls(epoch(year, 1, 1), epoch(year + 1, 1, 1))

    @property
    def duration(self) -> float:
        """Length of the period in seconds."""
        return self.end - self.start

    @property
    def days(self) -> float:
        """Length of the period in days."""
        return self.duration / SECONDS_PER_DAY


#: The paper's probe-campaign windows.
CAMPAIGN_A1_PERIOD = Period(epoch(2016, 5, 9), epoch(2016, 5, 22))   # 13 days
CAMPAIGN_A2_PERIOD = Period(epoch(2016, 6, 13), epoch(2016, 6, 21))  # 8 days
