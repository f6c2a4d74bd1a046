"""Damped, column-batched fixed-point iteration.

The generic wormhole model (Eq. 11 of the paper) resolves channel service
times iteratively: on acyclic channel graphs a single reverse sweep suffices,
but on cyclic graphs (k-ary n-cubes with wraparound, or any network whose
channel-dependency graph has loops) the recursion must be iterated to a fixed
point.  This module provides that solver, :func:`fixed_point_batch`: one
independent iteration per operating point (column), run jointly.

An exhausted budget is not an error here: the solver returns the last
iterate with ``converged=False`` together with its residual and worst
component, and the caller decides whether that answer is good enough
(the channel-graph solver accepts residuals below a floor and raises a
:class:`~repro.errors.ConvergenceError` naming the worst channel
otherwise).  The iteration is deterministic, so re-running it could only
reproduce the same iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..obs.metrics import METRICS

__all__ = ["FixedPointResult", "fixed_point_batch"]


def _record_solve(iterations: int, residual: float) -> None:
    """Convergence telemetry of one completed solve (no-op when disabled)."""
    if not METRICS.enabled:
        return
    METRICS.add("fixed_point.solves")
    METRICS.observe("fixed_point.iterations", float(iterations))
    if math.isfinite(residual):
        METRICS.observe("fixed_point.residual", residual)


@dataclass(frozen=True)
class FixedPointResult:
    """Outcome of a fixed-point iteration.

    Attributes
    ----------
    value:
        The converged matrix, or the last iterate when the budget ran out.
    iterations:
        Number of iterations performed.
    residual:
        Final infinity-norm change between successive iterates.
    converged:
        True when the residual dropped below the tolerance; False when the
        iteration budget was exhausted first.
    worst_component:
        The state component (row) with the largest final update, or None
        when nothing was left iterating.
    """

    value: np.ndarray
    iterations: int
    residual: float
    converged: bool
    worst_component: int | None = None


def fixed_point_batch(
    func: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    *,
    tol: float = 1e-12,
    max_iter: int = 10_000,
    damping: float = 1.0,
) -> FixedPointResult:
    """Column-batched fixed point: one independent iteration per column.

    ``x0`` has shape ``(S, K)`` — ``S`` state components solved jointly for
    each of ``K`` independent operating points — and ``func`` maps the full
    matrix to a matrix of the same shape.  A non-finite entry does not end
    the whole iteration: the offending *column* is frozen at ``inf``
    (per-point saturation — ``inf`` is a legitimate fixed point of a
    monotone queueing recursion) and excluded from the residual, while the
    remaining columns keep iterating until every active column's update
    drops below ``tol``.  After ``max_iter`` iterations the last iterate is
    returned with ``converged=False`` (see the module docstring).

    ``func`` must tolerate ``inf`` columns in its input (the queueing maps
    used here do: a diverged service time yields diverged waits).
    """
    if not (0.0 < damping <= 1.0):
        raise ValueError(f"damping must be in (0, 1], got {damping!r}")
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 2:
        raise ValueError(f"x0 must be 2-D (states, points), got shape {x.shape}")
    n_points = x.shape[1]
    active = np.ones(n_points, dtype=bool)
    residual = np.inf
    worst = None
    for it in range(1, max_iter + 1):
        fx = np.asarray(func(x), dtype=float)
        diverged = active & ~np.all(np.isfinite(fx), axis=0)
        if np.any(diverged):
            x[:, diverged] = np.inf
            active &= ~diverged
        if not np.any(active):
            _record_solve(it, 0.0)
            return FixedPointResult(value=x, iterations=it, residual=0.0, converged=True)
        new = (1.0 - damping) * x[:, active] + damping * fx[:, active]
        update = np.abs(new - x[:, active])
        residual = float(np.max(update)) if new.size else 0.0
        # Worst state component (row) over the still-active points.
        worst = int(np.argmax(np.max(update, axis=1))) if new.size else None
        x[:, active] = new
        if residual <= tol:
            _record_solve(it, residual)
            return FixedPointResult(value=x, iterations=it, residual=residual, converged=True)
    METRICS.add("fixed_point.exhausted")
    _record_solve(max_iter, residual)
    return FixedPointResult(
        value=x,
        iterations=max_iter,
        residual=residual,
        converged=False,
        worst_component=worst,
    )
