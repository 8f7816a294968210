"""Small argument-validation helpers shared across the package."""

from __future__ import annotations

from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with ``message`` when ``condition`` is false."""
    if not condition:
        raise ValueError(message)


def require_positive(value: float, name: str) -> float:
    """Validate that a numeric argument is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def require_in_unit_interval(value: float, name: str) -> float:
    """Validate that a numeric argument lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def require_one_of(value: T, options: Iterable[T], name: str) -> T:
    """Validate membership in a fixed option set."""
    options = tuple(options)
    if value not in options:
        raise ValueError(f"{name} must be one of {options!r}, got {value!r}")
    return value


def require_non_empty(seq: Sequence[T], name: str) -> Sequence[T]:
    """Validate that a sequence has at least one element."""
    if len(seq) == 0:
        raise ValueError(f"{name} must not be empty")
    return seq
