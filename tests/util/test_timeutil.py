"""Tests for the simulation calendar helpers."""

import pytest

from repro.util.timeutil import (
    CAMPAIGN_A1_PERIOD,
    CAMPAIGN_A2_PERIOD,
    Period,
    day_of_week,
    epoch,
    from_epoch,
    hour_of,
    is_weekend,
    month_of,
    year_of,
)


class TestEpochConversions:
    def test_roundtrip(self):
        ts = epoch(2015, 6, 15, 13, 30)
        moment = from_epoch(ts)
        assert (moment.year, moment.month, moment.day) == (2015, 6, 15)
        assert (moment.hour, moment.minute) == (13, 30)

    def test_month_and_year(self):
        ts = epoch(2015, 11, 2)
        assert month_of(ts) == 11
        assert year_of(ts) == 2015

    def test_known_weekday(self):
        # 2015-01-01 was a Thursday.
        assert day_of_week(epoch(2015, 1, 1)) == 3

    def test_weekend_detection(self):
        assert is_weekend(epoch(2015, 1, 3))        # Saturday
        assert is_weekend(epoch(2015, 1, 4))        # Sunday
        assert not is_weekend(epoch(2015, 1, 5))    # Monday


class TestPeriod:
    def test_year_period_days(self):
        assert Period.for_year(2015).days == 365
        assert Period.for_year(2016).days == 366  # leap year

    def test_reversed_period_raises(self):
        with pytest.raises(ValueError):
            Period(10.0, 5.0)

    def test_paper_windows(self):
        assert round(CAMPAIGN_A1_PERIOD.days) == 13
        assert round(CAMPAIGN_A2_PERIOD.days) == 8
