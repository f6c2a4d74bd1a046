"""Channel arrival rates for the butterfly fat-tree (Eqs. 12-15).

Under uniform random destinations and steady state (departure rate equals
arrival rate below saturation), all links at the same level running in the
same direction carry equal traffic, so rates are computed per *channel
class* ``<l, l+1>`` / ``<l+1, l>``:

* ``P^_l = (4^n - 4^l) / (4^n - 1)`` — probability a message generated at a
  leaf must rise above level ``l`` (Eq. 12);
* ``lambda_{l,l+1} = lambda_0 * P^_l * 2^l`` — per-link rate on up channels
  from level ``l`` (Eq. 14), since ``P^_l * 4^n * lambda_0`` messages per
  cycle cross the ``4^n / 2^l`` links of that level going up;
* down rates mirror up rates by symmetry (Eq. 15).

The exact *conditional* probability that a message already at level ``l``
(having climbed from ``l-1``) continues upward is
``(4^n - 4^l) / (4^n - 4^{l-1})``; the paper approximates it by the
unconditional ``P^_l``, and both are provided (the choice is a
:class:`~repro.core.variants.ModelVariant` switch).

Every formula is written once for a ``(c, p)`` fat-tree (``c`` children and
``p`` parents per switch, so ``4`` and ``2`` above become ``c`` and
``c / p``); the paper's 4-2 butterfly fat-tree helpers are its ``(4, 2)``
specializations.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..util.validation import check_fattree_shape

__all__ = [
    "climb_probability",
    "generalized_up_probability",
    "generalized_channel_rates",
    "generalized_channel_rates_batch",
    "up_probability",
    "down_probability",
    "conditional_up_probability",
    "bft_channel_rates",
    "bft_channel_rates_batch",
    "bft_total_up_crossings",
    "bft_matrix_up_crossings",
    "bft_channel_rates_for_matrix",
]


def _check_levels(levels: int) -> None:
    if not isinstance(levels, int) or levels < 1:
        raise ConfigurationError(f"levels must be a positive integer, got {levels!r}")


def _up_probabilities(children: int, levels: int) -> np.ndarray:
    """``P^_l`` for ``l = 0 .. levels-1`` as one float array (Eq. 12)."""
    ls = np.arange(levels)
    c, n = float(children), levels
    return (c**n - c**ls) / (c**n - 1.0)


def climb_probability(children: int, levels: int, level: int, conditional: bool) -> float:
    """Probability that a message at switch ``level`` keeps climbing.

    Unconditional (Eq. 12): ``P^_l = (c^n - c^l) / (c^n - 1)``, the share of
    destinations outside a level-``l`` leaf block, defined for
    ``0 <= level <= levels`` (``P^_0 == 1``, ``P^_levels == 0``).

    Conditional: a message that has already climbed to ``level`` has left
    its level-``(level-1)`` block, which removes ``c^{l-1}`` candidate
    destinations from the denominator: ``(c^n - c^l) / (c^n - c^{l-1})``.
    Requires ``level >= 1``.
    """
    check_fattree_shape(children, 1, levels)  # no parent count enters P^
    lowest = 1 if conditional else 0
    if not (lowest <= level <= levels):
        raise ConfigurationError(f"level must be in [{lowest}, {levels}], got {level!r}")
    c, n = children, levels
    if conditional:
        return (c**n - c**level) / (c**n - c ** (level - 1))
    return (c**n - c**level) / (c**n - 1)


def generalized_up_probability(children: int, levels: int, level: int) -> float:
    """``P^_l`` for block radix ``c``: ``(c^n - c^l) / (c^n - 1)``."""
    return climb_probability(children, levels, level, False)


def generalized_channel_rates_batch(
    children: int, parents: int, levels: int, injection_rates: np.ndarray
) -> np.ndarray:
    """Per-link rates ``lambda_{l,l+1} = lambda_0 P^_l (c/p)^l`` over a load grid.

    Returns shape ``(levels, K)`` for ``K`` injection rates: row ``l``
    holds the rate of one up link from level ``l`` to ``l+1`` (by Eq. 15
    also one down link from ``l+1`` to ``l``); row 0 is ``lambda_0``
    itself.  ``N * P^_l * lambda_0`` messages spread over the
    ``N * (p/c)^l`` links of level ``l``.
    """
    check_fattree_shape(children, parents, levels)
    inj = np.asarray(injection_rates, dtype=float)
    if inj.ndim != 1:
        raise ConfigurationError("injection_rates must be a 1-D array")
    if np.any(inj < 0):
        raise ConfigurationError("injection_rates must be >= 0")
    probs = _up_probabilities(children, levels)
    scale = (float(children) / parents) ** np.arange(levels)
    return (inj[np.newaxis, :] * probs[:, np.newaxis]) * scale[:, np.newaxis]


def generalized_channel_rates(
    children: int, parents: int, levels: int, injection_rate: float
) -> np.ndarray:
    """Per-link rates at one injection rate: a one-point batch, ``l = 0..n-1``."""
    if injection_rate < 0:
        raise ConfigurationError(f"injection_rate must be >= 0, got {injection_rate!r}")
    return generalized_channel_rates_batch(
        children, parents, levels, np.array([injection_rate])
    )[:, 0]


def up_probability(levels: int, level: int) -> float:
    """``P^_l`` of Eq. 12: probability of rising above ``level``.

    Defined for ``0 <= level <= levels``; ``P^_0 == 1`` (every message
    enters the network) and ``P^_levels == 0`` (nothing rises above the
    root level).
    """
    return climb_probability(4, levels, level, False)


def down_probability(levels: int, level: int) -> float:
    """``P#_l = 1 - P^_l`` of Eq. 13."""
    return 1.0 - up_probability(levels, level)


def conditional_up_probability(levels: int, level: int) -> float:
    """Exact P(rise above ``level`` | already climbed to ``level``).

    ``(4^n - 4^l) / (4^n - 4^{l-1})``; requires ``level >= 1``.
    """
    return climb_probability(4, levels, level, True)


def bft_channel_rates(levels: int, injection_rate: float) -> np.ndarray:
    """Per-link rates ``lambda_{l,l+1}`` for ``l = 0 .. levels-1`` (Eq. 14).

    Index ``l`` of the returned array is the rate of one up link from level
    ``l`` to ``l+1``; by Eq. 15 it also equals the rate of one down link
    from ``l+1`` to ``l``.  Index 0 is the injection-channel rate
    ``lambda_0`` itself.
    """
    return generalized_channel_rates(4, 2, levels, injection_rate)


def bft_channel_rates_batch(levels: int, injection_rates: np.ndarray) -> np.ndarray:
    """Per-link rates for a whole vector of injection rates at once (Eq. 14).

    Returns shape ``(levels, K)``; column ``k`` is elementwise identical to
    ``bft_channel_rates(levels, injection_rates[k])``.
    """
    return generalized_channel_rates_batch(4, 2, levels, injection_rates)


def bft_matrix_up_crossings(levels: int, matrix: np.ndarray) -> np.ndarray:
    """Aggregate level crossings of an arbitrary destination distribution.

    Generalizes the counting argument behind Eq. 14: element ``l`` is the
    total message mass (per unit ``lambda_0``) crossing from level ``l`` to
    ``l + 1`` — every message whose nearest common ancestor with its source
    sits above level ``l``, i.e. whose destination lies outside the
    source's level-``l`` leaf block.  ``matrix`` is a
    :meth:`~repro.traffic.spec.TrafficSpec.destination_matrix`-style
    ``(N, N)`` row-stochastic (or row-zero for silent sources) array.
    """
    _check_levels(levels)
    n = 4**levels
    m = np.asarray(matrix, dtype=float)
    if m.shape != (n, n):
        raise ConfigurationError(f"matrix must have shape ({n}, {n}), got {m.shape}")
    if np.any(m < 0):
        raise ConfigurationError("matrix entries must be non-negative")
    total = float(m.sum())
    crossings = np.empty(levels)
    for l in range(levels):
        block = 4**l
        blocks = m.reshape(n // block, block, n // block, block)
        # mass staying inside a level-l block never crosses level l
        within = float(np.einsum("ijik->", blocks))
        crossings[l] = total - within
    return crossings


def bft_channel_rates_for_matrix(
    levels: int, injection_rate: float, matrix: np.ndarray
) -> np.ndarray:
    """Class-*average* per-link rates under an arbitrary destination matrix.

    The Eq. 14 generalization: the ``bft_matrix_up_crossings`` mass at
    level ``l`` spreads over the ``4**n / 2**l`` up links of that level, so
    the mean per-link rate is ``lambda_0 * crossings_l * 2**l / 4**n`` (by
    flow balance the same average holds for the mirroring down links).
    For the uniform matrix this reproduces :func:`bft_channel_rates`
    exactly.  Note this is the *average* over a class — heterogeneous
    patterns (hotspots) have per-channel spreads that only the flow-level
    accounting in :mod:`repro.traffic.flows` resolves.
    """
    if injection_rate < 0:
        raise ConfigurationError(f"injection_rate must be >= 0, got {injection_rate!r}")
    crossings = bft_matrix_up_crossings(levels, matrix)
    ls = np.arange(levels)
    return injection_rate * crossings * (2.0**ls) / (4.0**levels)


def bft_total_up_crossings(levels: int, injection_rate: float) -> np.ndarray:
    """Aggregate messages/cycle crossing each up level (for flow-balance tests).

    Element ``l`` is ``P^_l * 4^n * lambda_0``, the total up-traffic between
    levels ``l`` and ``l+1``; dividing by the ``4^n / 2^l`` links of that
    level reproduces :func:`bft_channel_rates`.
    """
    _check_levels(levels)
    return _up_probabilities(4, levels) * (4.0**levels) * injection_rate
