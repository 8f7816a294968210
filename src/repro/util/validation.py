"""Small argument-validation helpers shared across the package."""

from __future__ import annotations


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
