"""Multi-server M/G/m waiting-time approximation (Hokstad) — Eqs. 7-8.

The butterfly fat-tree offers *two* redundant up-links out of every switch;
a worm heading up takes whichever is free.  The paper models the pair as a
single two-server queue and uses an approximation credited to Hokstad
(Operations Research 26(3), 1978) for the M/G/2 mean wait:

    ``W_{M/G/2} = lambda^2 x_bar^3 / (2 (4 - lambda^2 x_bar^2)) * (1 + C_b^2)``   (Eq. 7)

where ``lambda`` is the *total* arrival rate offered to the two-server
channel (the published correction to Eqs. 21/23 makes this ``2 *
lambda_link`` for the fat-tree's per-link rates).

Algebraically, Eq. 7 is exactly the exponential-case M/M/2 wait scaled by
``(1 + C_b^2)/2`` — the classic Lee–Longton-style two-moment scaling, which
Hokstad's analysis supports for moderate loads:

    ``W_{M/G/m} ≈ (1 + C_b^2)/2 * W_{M/M/m}``.

We therefore implement the general-``m`` rule through the exact Erlang-C
M/M/m wait; ``m=2`` reproduces the paper's closed form to machine precision
(verified in the test suite) and ``m=1`` reproduces Pollaczek–Khinchine.
This realizes the paper's closing remark that "the framework can be extended
for networks that require queuing models with more than two servers".
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError
from ..util.validation import is_zero
from .distributions import scv_draper_ghosh
from .markovian import _mmc_wait, mmc_waiting_time
from .mg1 import _pollaczek_khinchine

__all__ = [
    "hokstad_mg2_waiting_time",
    "mgm_waiting_time",
    "mgm_waiting_time_batch",
    "mgm_waiting_time_wormhole",
]


def hokstad_mg2_waiting_time(
    total_arrival_rate: float, mean_service: float, scv: float = 0.0
) -> float:
    """Closed-form Hokstad M/G/2 mean wait (Eq. 7 / Eq. 8 of the paper).

    Parameters
    ----------
    total_arrival_rate:
        Total Poisson rate ``lambda`` offered to the two-server channel.
        For the fat-tree's symmetric link pair this is twice the per-link
        rate.
    mean_service:
        Mean service time ``x_bar`` of a worm on either server.
    scv:
        Squared coefficient of variation of the service time.

    Returns ``inf`` at or past saturation (``lambda * x_bar >= 2``).
    """
    if scv < 0:
        raise ConfigurationError(f"scv must be >= 0, got {scv!r}")
    if total_arrival_rate < 0:
        raise ConfigurationError(f"total_arrival_rate must be >= 0, got {total_arrival_rate!r}")
    if mean_service <= 0:
        raise ConfigurationError(f"mean_service must be > 0, got {mean_service!r}")
    if not math.isfinite(mean_service):
        return math.inf
    a = total_arrival_rate * mean_service
    if a >= 2.0:
        return math.inf
    if is_zero(a):
        return 0.0
    lam2x2 = total_arrival_rate * total_arrival_rate * mean_service * mean_service
    return (
        total_arrival_rate**2
        * mean_service**3
        / (2.0 * (4.0 - lam2x2))
        * (1.0 + scv)
    )


def _two_moment(scv, mmm_wait):
    """The ``(1 + C_b^2)/2`` scaling of an M/M/m wait (unchecked core)."""
    return (1.0 + scv) / 2.0 * mmm_wait


def _mgm_wait(total_arrival_rate, mean_service, servers: int, scv):
    """M/G/m waits, ``inf`` past saturation (unchecked core; caller's ``np.errstate``).

    ``servers == 1`` is Pollaczek–Khinchine.  The one test
    ``a = lambda * x_bar < servers`` masks saturated points and non-finite
    services alike (an ``inf`` service makes ``a`` ``inf`` or ``nan``), so
    whatever the formulas give there — ``nan`` SCVs included — is dropped.
    """
    a = total_arrival_rate * mean_service
    if servers == 1:
        wait = _pollaczek_khinchine(a, mean_service, scv)
    else:
        wait = _two_moment(scv, _mmc_wait(a, mean_service, servers))
    return np.where(a < servers, wait, np.inf)


def mgm_waiting_time(
    total_arrival_rate: float, mean_service: float, servers: int, scv: float = 0.0
) -> float:
    """General-``m`` M/G/m mean wait: ``(1 + C_b^2)/2`` times the M/M/m wait.

    ``m = 1`` equals Pollaczek–Khinchine and ``m = 2`` equals the paper's
    Eq. 7; larger ``m`` extends the framework to wider switches (fatter
    fat-trees), as anticipated in the paper's conclusion.
    """
    if scv < 0:
        raise ConfigurationError(f"scv must be >= 0, got {scv!r}")
    if not math.isfinite(mean_service):
        return math.inf
    w_mmm = mmc_waiting_time(total_arrival_rate, mean_service, servers)
    if math.isinf(w_mmm):
        return math.inf
    return _two_moment(scv, w_mmm)


def mgm_waiting_time_batch(
    total_arrival_rate: np.ndarray,
    mean_service: np.ndarray,
    servers: int,
    scv: np.ndarray,
) -> np.ndarray:
    """Vectorized :func:`mgm_waiting_time` over arrays of operating points.

    Same two-moment scaling of the exact M/M/m wait, broadcast over a load
    axis; saturated and non-finite entries evaluate to ``inf`` per point.
    ``servers == 1`` is Pollaczek–Khinchine (as
    :func:`~repro.queueing.mg1.mg1_waiting_time_batch`), which the
    Erlang-C form equals up to rounding.
    """
    if not isinstance(servers, int) or servers < 1:
        raise ConfigurationError(f"servers must be a positive integer, got {servers!r}")
    rate = np.asarray(total_arrival_rate, dtype=float)
    if np.any(rate < 0):
        raise ConfigurationError("total_arrival_rate must be >= 0")
    service = np.asarray(mean_service, dtype=float)
    with np.errstate(all="ignore"):
        return _mgm_wait(rate, service, servers, np.asarray(scv, dtype=float))


def mgm_waiting_time_wormhole(
    total_arrival_rate: float,
    mean_service: float,
    servers: int,
    message_flits: float,
) -> float:
    """M/G/m wait with the Draper–Ghosh wormhole SCV substituted (Eq. 8)."""
    if not math.isfinite(mean_service):
        return math.inf
    scv = scv_draper_ghosh(mean_service, message_flits)
    return mgm_waiting_time(total_arrival_rate, mean_service, servers, scv)
