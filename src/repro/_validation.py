"""Internal argument-validation helpers shared across the package.

These helpers raise the *caller-appropriate* exception class passed in via
``exc`` so each subsystem reports failures in its own vocabulary while the
checking logic lives in one place.
"""

from __future__ import annotations

from typing import Any, Type

from .exceptions import ReproError


def require_positive_int(value: Any, name: str, exc: Type[ReproError]) -> int:
    """Return ``value`` as ``int`` after checking it is a positive integer.

    Booleans are rejected (``True`` would otherwise pass as ``1``).
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise exc(f"{name} must be a positive integer, got {value!r}")
    if value <= 0:
        raise exc(f"{name} must be positive, got {value}")
    return value


def require_non_negative_int(value: Any, name: str, exc: Type[ReproError]) -> int:
    """Return ``value`` as ``int`` after checking it is a non-negative integer."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise exc(f"{name} must be a non-negative integer, got {value!r}")
    if value < 0:
        raise exc(f"{name} must be non-negative, got {value}")
    return value


def require_positive_float(value: Any, name: str, exc: Type[ReproError]) -> float:
    """Return ``value`` as ``float`` after checking it is finite and > 0."""
    try:
        result = float(value)
    except (TypeError, ValueError):
        raise exc(f"{name} must be a number, got {value!r}") from None
    if not result > 0 or result != result or result in (float("inf"),):
        raise exc(f"{name} must be a finite positive number, got {value!r}")
    return result


def require_non_negative_float(value: Any, name: str, exc: Type[ReproError]) -> float:
    """Return ``value`` as ``float`` after checking it is finite and >= 0."""
    try:
        result = float(value)
    except (TypeError, ValueError):
        raise exc(f"{name} must be a number, got {value!r}") from None
    if result < 0 or result != result or result == float("inf"):
        raise exc(f"{name} must be a finite non-negative number, got {value!r}")
    return result
