"""Service-time distribution descriptions and SCV approximations.

The waiting-time formulas of the paper (Eqs. 4-8) depend on the service-time
distribution only through its squared coefficient of variation (SCV),
``C_b^2 = sigma_b^2 / x_bar^2``.  For wormhole routing the true distribution
of a channel's service time is unknown; following Draper & Ghosh (1994,
p. 206) the paper approximates the standard deviation by the *blocking
component* of the mean service time:

    ``C_b^2 = (x_bar - s/f)^2 / x_bar^2``                         (Eq. 5)

where ``s/f`` is the message length in flits (the deterministic,
contention-free part of the service time).  At zero load ``x_bar == s/f``
and the service time is deterministic (``C_b^2 == 0``); as contention grows
the distribution becomes more variable.

This module also exposes the alternative SCV models used by the ablation
experiments: deterministic (``C_b^2 = 0``, i.e. M/D/m) and exponential
(``C_b^2 = 1``, i.e. M/M/m).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError

__all__ = [
    "ScvMode",
    "scv_draper_ghosh",
    "scv_draper_ghosh_batch",
    "scv_for_mode",
    "scv_for_mode_batch",
    "ServiceTime",
]


class ScvMode(enum.Enum):
    """Which squared-coefficient-of-variation approximation to use."""

    #: The paper's choice (Eq. 5), after Draper & Ghosh.
    DRAPER_GHOSH = "draper-ghosh"
    #: Deterministic service times, ``C_b^2 = 0`` (M/D/m behaviour).
    DETERMINISTIC = "deterministic"
    #: Exponential service times, ``C_b^2 = 1`` (M/M/m behaviour).
    EXPONENTIAL = "exponential"


def _draper_ghosh(mean_service, message_flits):
    """Eq. 5 on checked positive services, scalar or array (unchecked core)."""
    ratio = np.maximum(mean_service - message_flits, 0.0) / mean_service
    return ratio * ratio


def _scv(mode: ScvMode, mean_service, message_flits):
    """The SCV of ``mode`` (unchecked core; a constant mode gives a scalar).

    The stage-graph solver calls it on raw service arrays: an ``inf``
    service gives a ``nan`` Draper-Ghosh SCV there, which the M/G/m wait
    maps to ``inf`` with the rest of the diverged point.
    """
    if mode is ScvMode.DRAPER_GHOSH:
        return _draper_ghosh(mean_service, message_flits)
    if mode is ScvMode.DETERMINISTIC:
        return 0.0
    if mode is ScvMode.EXPONENTIAL:
        return 1.0
    raise ConfigurationError(f"unknown ScvMode: {mode!r}")


def scv_draper_ghosh(mean_service: float, message_flits: float) -> float:
    """Draper–Ghosh SCV approximation (Eq. 5 of the paper).

    Parameters
    ----------
    mean_service:
        Mean channel service time ``x_bar`` in cycles (>= message_flits in a
        consistent model, but the function tolerates any positive value and
        clamps the blocking component at zero).
    message_flits:
        Message length ``s/f`` in flits.
    """
    if mean_service <= 0:
        raise ConfigurationError(f"mean_service must be positive, got {mean_service!r}")
    if message_flits <= 0:
        raise ConfigurationError(f"message_flits must be positive, got {message_flits!r}")
    return float(_draper_ghosh(mean_service, message_flits))


def scv_draper_ghosh_batch(
    mean_service: np.ndarray, message_flits: float
) -> np.ndarray:
    """Vectorized Draper–Ghosh SCV (Eq. 5) over an array of mean services.

    Elementwise identical to :func:`scv_draper_ghosh` at every finite entry;
    non-finite services (saturated points) yield an SCV of 0, matching the
    solvers' scalar convention of suppressing the SCV once a wait diverges.
    """
    return scv_for_mode_batch(ScvMode.DRAPER_GHOSH, mean_service, message_flits)


def scv_for_mode(mode: ScvMode, mean_service: float, message_flits: float) -> float:
    """Evaluate the SCV under the given approximation mode."""
    if mode is ScvMode.DRAPER_GHOSH:
        return scv_draper_ghosh(mean_service, message_flits)
    return _scv(mode, mean_service, message_flits)


def scv_for_mode_batch(
    mode: ScvMode, mean_service: np.ndarray, message_flits: float
) -> np.ndarray:
    """Vectorized :func:`scv_for_mode` over an array of mean service times.

    Non-finite (saturated) entries evaluate to SCV 0 under every mode, so
    batch solvers can keep broadcasting past saturation without NaNs.
    """
    if mode is ScvMode.DRAPER_GHOSH and message_flits <= 0:
        raise ConfigurationError(f"message_flits must be positive, got {message_flits!r}")
    service = np.asarray(mean_service, dtype=float)
    finite = np.isfinite(service)
    scv = _scv(mode, np.where(finite, service, 1.0), message_flits)
    return np.where(finite, scv, 0.0)


@dataclass(frozen=True)
class ServiceTime:
    """A (mean, SCV) summary of a service-time distribution.

    Queueing formulas in this package consume this two-moment summary; no
    further distributional detail is needed for the P-K / Hokstad results.
    """

    mean: float
    scv: float = 0.0

    def __post_init__(self) -> None:
        if not (self.mean > 0):
            raise ConfigurationError(f"service mean must be positive, got {self.mean!r}")
        if not (self.scv >= 0):
            raise ConfigurationError(f"service SCV must be >= 0, got {self.scv!r}")

    @property
    def variance(self) -> float:
        """Implied service-time variance ``sigma_b^2 = C_b^2 * x_bar^2``."""
        return self.scv * self.mean * self.mean

    @classmethod
    def wormhole(cls, mean: float, message_flits: float) -> "ServiceTime":
        """Service time with the paper's wormhole SCV approximation."""
        return cls(mean=mean, scv=scv_draper_ghosh(mean, message_flits))
