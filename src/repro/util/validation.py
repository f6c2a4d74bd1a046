"""Argument validation helpers.

These raise :class:`repro.errors.ConfigurationError` with uniform messages so
that invalid parameters are reported consistently across the library.
"""

from __future__ import annotations

import math
from typing import Any

from ..errors import ConfigurationError

__all__ = [
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_power_of",
    "check_fattree_shape",
    "exact_exponent",
    "is_zero",
]


def is_zero(value: Any, *, tol: float = 0.0) -> Any:
    """Intention-revealing zero test for computed rates and loads.

    With the default ``tol=0.0`` this is the *exact* sentinel guard the
    queueing hot paths use (``rho == 0.0`` short-circuits the wait formulas
    without perturbing any nonzero result — the solvers' outputs must stay
    bit-identical).  A positive ``tol`` turns it into a tolerance test.
    Works elementwise on NumPy arrays (returns a boolean array).
    """
    if tol:
        return abs(value) <= tol
    return value == 0.0


def check_positive(name: str, value: float) -> float:
    """Ensure ``value`` is a finite number strictly greater than zero."""
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def check_non_negative(name: str, value: float) -> float:
    """Ensure ``value`` is a finite number greater than or equal to zero."""
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
        raise ConfigurationError(f"{name} must be a non-negative finite number, got {value!r}")
    return float(value)


def check_probability(name: str, value: float) -> float:
    """Ensure ``value`` lies in the closed interval [0, 1]."""
    if not (isinstance(value, (int, float)) and 0.0 <= value <= 1.0):
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def check_power_of(name: str, value: int, base: int) -> int:
    """Ensure ``value`` is a positive integer power of ``base`` (>= base**1).

    Returns the exponent ``e`` such that ``base ** e == value``.
    """
    if not isinstance(value, int) or value < base:
        raise ConfigurationError(f"{name} must be an integer power of {base} (>= {base}), got {value!r}")
    e = 0
    v = value
    while v > 1:
        if v % base != 0:
            raise ConfigurationError(f"{name} must be an integer power of {base}, got {value!r}")
        v //= base
        e += 1
    return e


def check_fattree_shape(children: int, parents: int, levels: int) -> None:
    """Ensure ``(children, parents, levels)`` describe a generalized fat-tree.

    Integers with ``children >= 2``, ``parents >= 1`` and ``levels >= 1``.
    """
    shape = (("children", children, 2), ("parents", parents, 1), ("levels", levels, 1))
    for name, value, low in shape:
        if not isinstance(value, int) or value < low:
            raise ConfigurationError(f"{name} must be an integer >= {low}, got {value!r}")


def exact_exponent(base: int, value: int) -> int | None:
    """``e >= 1`` with ``base ** e == value``, or None when no such exponent.

    The non-raising companion of :func:`check_power_of`, shared by the CLI's
    size-axis mapping and the Scenario family-parameter derivation.
    """
    if not isinstance(base, int) or not isinstance(value, int):
        return None
    if base < 2 or value < base:
        return None
    e, v = 0, value
    while v % base == 0:
        v //= base
        e += 1
    return e if v == 1 else None
