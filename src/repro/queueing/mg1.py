"""M/G/1 waiting times (Pollaczek–Khinchine) — Eqs. 4 and 6 of the paper.

The mean waiting time in an M/G/1 queue with Poisson arrival rate ``lambda``
and service moments ``(x_bar, C_b^2)`` is

    ``W = rho * x_bar * (1 + C_b^2) / (2 * (1 - rho))``,   ``rho = lambda * x_bar``.

Past saturation (``rho >= 1``) the queue has no steady state; following the
library-wide convention the functions return ``math.inf`` rather than raising
so that load sweeps can cross the saturation point gracefully.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError
from ..util.validation import is_zero
from .distributions import scv_draper_ghosh

__all__ = [
    "mg1_waiting_time",
    "mg1_waiting_time_batch",
    "mg1_waiting_time_wormhole",
    "mg1_utilization",
]


def mg1_utilization(arrival_rate: float, mean_service: float) -> float:
    """Server utilization ``rho = lambda * x_bar``."""
    if arrival_rate < 0:
        raise ConfigurationError(f"arrival_rate must be >= 0, got {arrival_rate!r}")
    if mean_service <= 0:
        raise ConfigurationError(f"mean_service must be > 0, got {mean_service!r}")
    return arrival_rate * mean_service


def _pollaczek_khinchine(rho, mean_service, scv):
    """Eq. 4 at utilization ``rho`` (unchecked core, scalar or array).

    Unmasked: only ``rho < 1`` is a steady state, and the caller maps the
    rest to ``inf`` (an ``inf`` service gives ``rho = inf`` or ``nan``, so
    ``rho < 1`` masks it too).  Arrays need the caller's ``np.errstate``.
    """
    return rho * mean_service * (1.0 + scv) / (2.0 * (1.0 - rho))


def mg1_waiting_time(arrival_rate: float, mean_service: float, scv: float = 0.0) -> float:
    """Mean M/G/1 queue wait (Pollaczek–Khinchine; Eq. 4).

    Parameters
    ----------
    arrival_rate:
        Poisson arrival rate ``lambda`` (messages per cycle).
    mean_service:
        Mean service time ``x_bar`` (cycles).
    scv:
        Squared coefficient of variation ``C_b^2`` of the service time.

    Returns
    -------
    float
        Mean waiting time in cycles; ``inf`` when ``rho >= 1`` or when
        ``mean_service`` is non-finite (as :func:`mg1_waiting_time_batch`).
    """
    if scv < 0:
        raise ConfigurationError(f"scv must be >= 0, got {scv!r}")
    if not math.isfinite(mean_service):
        return math.inf
    rho = mg1_utilization(arrival_rate, mean_service)
    if rho >= 1.0:
        return math.inf
    if is_zero(rho):
        return 0.0
    return _pollaczek_khinchine(rho, mean_service, scv)


def mg1_waiting_time_batch(
    arrival_rate: np.ndarray, mean_service: np.ndarray, scv: np.ndarray
) -> np.ndarray:
    """Vectorized Pollaczek–Khinchine wait over arrays of operating points.

    Broadcasts all three arguments together.  Elementwise identical to
    :func:`mg1_waiting_time` (same operation order) at finite entries;
    ``rho >= 1`` and non-finite services evaluate to ``inf`` per point, so
    a load sweep crosses saturation without poisoning its finite entries.
    """
    # The one-server M/G/m core; imported here because mgm builds on this
    # module's Pollaczek-Khinchine core.
    from .mgm import _mgm_wait

    rate = np.asarray(arrival_rate, dtype=float)
    service = np.asarray(mean_service, dtype=float)
    with np.errstate(all="ignore"):
        return _mgm_wait(rate, service, 1, np.asarray(scv, dtype=float))


def mg1_waiting_time_wormhole(
    arrival_rate: float, mean_service: float, message_flits: float
) -> float:
    """M/G/1 wait with the Draper–Ghosh wormhole SCV (Eq. 6).

    This is the single-server waiting-time building block used throughout
    the butterfly fat-tree analysis: substituting Eq. 5 into Eq. 4 yields

        ``W = lambda * x_bar^2 / (2 (1 - lambda x_bar)) * (1 + (x_bar - s/f)^2 / x_bar^2)``.
    """
    if not math.isfinite(mean_service):
        return math.inf
    scv = scv_draper_ghosh(mean_service, message_flits)
    return mg1_waiting_time(arrival_rate, mean_service, scv)
