"""Tests for CPM money arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.money import cpm_to_micros, format_cpm, format_usd, micros_to_cpm


class TestConversions:
    def test_micros_known_value(self):
        assert cpm_to_micros(0.95) == 950_000
        assert micros_to_cpm(950_000) == pytest.approx(0.95)

    @given(st.floats(min_value=0.0001, max_value=1000, allow_nan=False))
    def test_micros_roundtrip_within_half_micro(self, cpm):
        assert micros_to_cpm(cpm_to_micros(cpm)) == pytest.approx(cpm, abs=1e-6)

    def test_negative_cpm_rejected(self):
        with pytest.raises(ValueError):
            cpm_to_micros(-1.0)
        with pytest.raises(ValueError):
            micros_to_cpm(-1)


class TestFormatting:
    def test_format_cpm(self):
        assert format_cpm(0.4712) == "0.47 CPM"

    def test_format_usd_thousands(self):
        assert format_usd(1234.5) == "$1,234.50"
