"""Tests for the argument-validation helpers."""

import pytest

from repro.util.validation import (
    require,
    require_in_unit_interval,
    require_non_empty,
    require_one_of,
    require_positive,
)


def test_require_passes_and_fails():
    require(True, "fine")
    with pytest.raises(ValueError, match="broken"):
        require(False, "broken")


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


def test_require_one_of():
    assert require_one_of("a", ["a", "b"], "x") == "a"
    with pytest.raises(ValueError):
        require_one_of("c", ["a", "b"], "x")


def test_require_non_empty():
    assert require_non_empty([1], "x") == [1]
    with pytest.raises(ValueError):
        require_non_empty([], "x")
