"""Shared numerical and infrastructure helpers.

Submodules
----------
``fixedpoint``
    Damped, column-batched fixed-point iteration used by the generic
    channel-graph solver.
``rng``
    Reproducible random-stream spawning built on :class:`numpy.random.SeedSequence`.
``stats``
    Online moment accumulators and confidence intervals for simulation output.
``tables``
    Plain-text table and sparkline rendering for experiment reports.
``validation``
    Small argument-checking helpers with consistent error messages.
"""

from .fixedpoint import FixedPointResult
from .rng import spawn_rngs, spawn_seeds
from .stats import OnlineStats, mean_confidence_interval
from .tables import format_table, ascii_curve
from .validation import (
    check_positive,
    check_non_negative,
    check_probability,
    check_power_of,
    exact_exponent,
    is_zero,
)

__all__ = [
    "FixedPointResult",
    "spawn_rngs",
    "spawn_seeds",
    "OnlineStats",
    "mean_confidence_interval",
    "format_table",
    "ascii_curve",
    "check_positive",
    "check_non_negative",
    "check_probability",
    "check_power_of",
    "exact_exponent",
    "is_zero",
]
