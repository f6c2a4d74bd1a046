"""Exact Markovian queueing results used to validate the approximations.

These closed forms (M/M/1, M/M/c via Erlang C, M/D/1) are textbook results
(Kleinrock, *Queueing Systems* vol. I) and serve as ground truth for the
approximate M/G/1 / M/G/m formulas:

* M/G/1 with ``C_b^2 = 1``  must equal M/M/1,
* M/G/1 with ``C_b^2 = 0``  must equal M/D/1,
* Hokstad M/G/m with ``C_b^2 = 1`` must equal M/M/m (the approximation is
  exact in the exponential case).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError
from ..util.validation import is_zero

__all__ = [
    "erlang_c",
    "erlang_c_batch",
    "mm1_waiting_time",
    "mmc_waiting_time",
    "mmc_waiting_time_batch",
    "md1_waiting_time",
]


def _check_erlang(servers: int, offered_load) -> None:
    if not isinstance(servers, int) or servers <= 0:
        raise ConfigurationError(f"servers must be a positive integer, got {servers!r}")
    if np.any(np.less(offered_load, 0)):
        raise ConfigurationError("offered_load must be >= 0")


def _erlang_c(servers: int, offered_load):
    """Erlang C at ``0 <= a < servers``, scalar or array (unchecked core).

    The stable recurrence on the Erlang-B blocking probability; ``a = 0``
    gives exactly 0.  Arrays need the caller's ``np.errstate`` wherever
    entries lie outside the domain (the caller masks those).
    """
    b = 1.0
    for k in range(1, servers + 1):
        ab = offered_load * b
        b = ab / (k + ab)
    rho = offered_load / servers
    return b / (1.0 - rho + rho * b)


def _mmc_wait(offered_load, mean_service, servers: int):
    """Exact M/M/c wait at offered load ``a < servers`` (unchecked, unmasked core)."""
    return _erlang_c(servers, offered_load) * mean_service / (servers - offered_load)


def erlang_c(servers: int, offered_load: float) -> float:
    """Erlang-C probability that an arrival must wait in an M/M/c queue.

    Parameters
    ----------
    servers:
        Number of servers ``c`` (positive integer).
    offered_load:
        Offered load ``a = lambda * x_bar`` in Erlangs; must satisfy
        ``a < c`` for a steady state (returns 1.0 at or past saturation).
    """
    _check_erlang(servers, offered_load)
    if is_zero(offered_load):
        return 0.0
    if offered_load >= servers:
        return 1.0
    return _erlang_c(servers, offered_load)


def erlang_c_batch(servers: int, offered_load: np.ndarray) -> np.ndarray:
    """Vectorized :func:`erlang_c` over an array of offered loads.

    Uses the same Erlang-B recurrence elementwise (identical operation
    order, so each entry is bit-compatible with the scalar evaluation).
    Entries at or past saturation (``a >= servers``) evaluate to 1.0.
    """
    a = np.asarray(offered_load, dtype=float)
    _check_erlang(servers, a)
    with np.errstate(all="ignore"):
        out = _erlang_c(servers, a)
    return np.where(a < servers, out, 1.0)


def mm1_waiting_time(arrival_rate: float, mean_service: float) -> float:
    """Exact mean queue wait of an M/M/1 queue: ``rho x_bar / (1 - rho)``."""
    if mean_service <= 0:
        raise ConfigurationError(f"mean_service must be > 0, got {mean_service!r}")
    rho = arrival_rate * mean_service
    if rho >= 1.0:
        return math.inf
    return rho * mean_service / (1.0 - rho) if rho > 0 else 0.0


def mmc_waiting_time(arrival_rate: float, mean_service: float, servers: int) -> float:
    """Exact mean queue wait of an M/M/c queue (Erlang C).

    ``W = C(c, a) * x_bar / (c - a)`` with ``a = lambda * x_bar``.
    """
    if mean_service <= 0:
        raise ConfigurationError(f"mean_service must be > 0, got {mean_service!r}")
    a = arrival_rate * mean_service
    if a >= servers:
        return math.inf
    if is_zero(a):
        return 0.0
    _check_erlang(servers, a)
    return _mmc_wait(a, mean_service, servers)


def mmc_waiting_time_batch(
    arrival_rate: np.ndarray, mean_service: np.ndarray, servers: int
) -> np.ndarray:
    """Vectorized :func:`mmc_waiting_time`: exact M/M/c waits over load arrays.

    Broadcasts ``arrival_rate`` against ``mean_service``; saturated entries
    (``a >= servers``) and non-finite services evaluate to ``inf``.
    """
    rate = np.asarray(arrival_rate, dtype=float)
    service = np.asarray(mean_service, dtype=float)
    with np.errstate(all="ignore"):
        a = rate * service
        _check_erlang(servers, a)
        wait = _mmc_wait(a, service, servers)
    return np.where(a < servers, wait, np.inf)


def md1_waiting_time(arrival_rate: float, mean_service: float) -> float:
    """Exact mean queue wait of an M/D/1 queue: ``rho x_bar / (2(1 - rho))``."""
    if mean_service <= 0:
        raise ConfigurationError(f"mean_service must be > 0, got {mean_service!r}")
    rho = arrival_rate * mean_service
    if rho >= 1.0:
        return math.inf
    return rho * mean_service / (2.0 * (1.0 - rho)) if rho > 0 else 0.0
