"""Tests for the argument-validation helpers."""

import pytest

from repro.util.validation import require_in_unit_interval, require_positive


def test_require_positive():
    assert require_positive(2.5, "x") == 2.5
    with pytest.raises(ValueError):
        require_positive(0, "x")
    with pytest.raises(ValueError):
        require_positive(-1, "x")


def test_require_in_unit_interval():
    assert require_in_unit_interval(0.0, "x") == 0.0
    assert require_in_unit_interval(1.0, "x") == 1.0
    with pytest.raises(ValueError):
        require_in_unit_interval(1.01, "x")
