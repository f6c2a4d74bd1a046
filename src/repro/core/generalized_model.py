"""The closed-form fat-tree model of Section 3, for any ``(c, p)`` fat-tree.

The paper's 4-2 butterfly fat-tree is the ``(c, p) = (4, 2)`` member of a
family in which every switch has ``c`` child ports and ``p`` parent ports;
its conclusion notes the framework "can be extended for networks that
require queuing models with more than two servers".  The two sweeps below
are written once for the family, and
:class:`~repro.core.bft_model.ButterflyFatTreeModel` is their ``(4, 2)``
instance.

The channel dependency graph of a fat-tree is acyclic, so per-channel-class
mean service times and waits resolve in two closed-form sweeps (no
fixed-point iteration):

1. **Down sweep** (Eqs. 16-19), from the ejection channels upward: the
   service time of a down channel is the downstream service time plus the
   blocking-corrected downstream wait (one of ``c`` children, ``R = 1/c``);
   waits come from the M/G/1 model because down links have no redundancy.
2. **Up sweep** (Eqs. 20-24), from the root level downward: an up channel's
   service time mixes the continue-up branch (weight ``P^``) and the
   turn-down branch (weight ``P#``, one of ``c - 1`` sibling channels).
   Waits on up channels use the ``p``-server M/G/p model fed the total
   bundle rate ``p * lambda`` (for ``p = 2`` this is the published
   correction to Eqs. 21/23), except the injection channel ``<0,1>``,
   which has no redundant partner and stays M/G/1 (Eq. 24).

Rates and branching probabilities come from :mod:`repro.core.rates`
(``P^_l = (c^n - c^l) / (c^n - 1)``,
``lambda_{l,l+1} = lambda_0 * P^_l * (c/p)^l``), and average latency from
Eq. 25: ``L = W_{0,1} + x_{0,1} + (D_bar - 1)`` with
``D_bar = sum_l 2 l (c^l - c^(l-1)) / (c^n - 1)``.

The sweeps are batched: :meth:`GeneralizedFatTreeModel.solve_batch`
broadcasts both over a whole vector of injection rates in one NumPy pass
(``inf`` propagating per point past saturation), and the scalar ``solve``
/ ``latency`` are one-point wrappers over it, so they agree bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import Workload
from ..errors import ConfigurationError
from ..obs.metrics import METRICS
from ..queueing.distributions import scv_for_mode_batch
from ..queueing.mg1 import mg1_waiting_time_batch
from ..queueing.mgm import mgm_waiting_time_batch
from ..topology.properties import generalized_average_distance
from ..util.validation import check_fattree_shape
from .batch import BatchSolution, as_injection_rates, charged_wait
from .blocking import blocking_probability_batch
from .rates import (
    climb_probability,
    generalized_channel_rates,
    generalized_channel_rates_batch,
    generalized_up_probability,
)
from .variants import ModelVariant

__all__ = [
    "BftSolution",
    "GeneralizedFatTreeModel",
    "generalized_up_probability",
    "generalized_channel_rates",
    "generalized_channel_rates_batch",
    "generalized_average_distance",
]


@dataclass(frozen=True)
class BftSolution:
    """Per-channel-class solution of a fat-tree model at one operating point.

    All arrays have length ``levels`` and are indexed by the *lower* level
    of the channel: index ``l`` refers to up channel ``<l, l+1>`` and down
    channel ``<l+1, l>``.  Rates are per physical link (messages/cycle).
    """

    workload: Workload
    levels: int
    rate: np.ndarray
    down_service: np.ndarray
    down_wait: np.ndarray
    up_service: np.ndarray
    up_wait: np.ndarray
    average_distance: float

    @property
    def saturated(self) -> bool:
        """True when any wait or service time diverged (no steady state)."""
        return not (
            np.all(np.isfinite(self.down_service))
            and np.all(np.isfinite(self.down_wait))
            and np.all(np.isfinite(self.up_service))
            and np.all(np.isfinite(self.up_wait))
        )

    @property
    def injection_wait(self) -> float:
        """``W_{0,1}`` — the M/G/1 wait at the source (Eq. 24)."""
        return float(self.up_wait[0])

    @property
    def injection_service(self) -> float:
        """``x_{0,1}`` — the source service time, including all downstream blocking."""
        return float(self.up_service[0])

    @property
    def latency(self) -> float:
        """Average message latency in cycles (Eq. 25)."""
        if self.saturated:
            return math.inf
        return self.injection_wait + self.injection_service + self.average_distance - 1.0

    def up_utilization(self) -> np.ndarray:
        """Per-server utilization ``rho`` of each up channel class."""
        return self.rate * self.up_service

    def down_utilization(self) -> np.ndarray:
        """Per-server utilization ``rho`` of each down channel class."""
        return self.rate * self.down_service

    def breakdown(self) -> dict[str, float]:
        """Named latency components (for reports and examples)."""
        return {
            "injection_wait": self.injection_wait,
            "injection_service": self.injection_service,
            "pipeline": self.average_distance - 1.0,
            "latency": self.latency,
        }


class GeneralizedFatTreeModel:
    """Latency/throughput model of a ``(children, parents)`` fat-tree.

    Parameters
    ----------
    children, parents, levels:
        Family parameters; the machine has ``children**levels`` PEs and the
        up channels are M/G/``parents`` queues.
    variant:
        Approximation switches; defaults to the model exactly as published.
        ``multiserver_up=False`` degrades every up bundle to independent
        M/G/1 queues.
    """

    def __init__(
        self,
        children: int,
        parents: int,
        levels: int,
        variant: ModelVariant | None = None,
    ) -> None:
        check_fattree_shape(children, parents, levels)
        self.children = children
        self.parents = parents
        self.levels = levels
        self.num_processors = children**levels
        self.variant = variant or ModelVariant.paper()
        self.average_distance = generalized_average_distance(children, levels)

    def _scv_batch(self, service: np.ndarray, flits: int) -> np.ndarray:
        """Per-point SCV of a channel class (0 past saturation)."""
        return scv_for_mode_batch(self.variant.scv_mode, service, flits)

    # --- solver ----------------------------------------------------------------------

    def solve_batch(self, injection_rates, message_flits: int) -> BatchSolution:
        """Resolve every channel class over a whole vector of injection rates.

        Both Eq. 16-24 sweeps are broadcast over the load axis: all stage
        service times, M/G/m waits and blocking corrections are arrays with
        one entry per injection rate, with ``inf`` propagating per point
        past saturation.  Column ``k`` of every per-level array is
        bit-identical to the scalar solve at ``injection_rates[k]``.
        """
        if not isinstance(message_flits, int) or message_flits <= 0:
            raise ConfigurationError("message_flits must be a positive integer")
        inj = as_injection_rates(injection_rates)
        c, p, n = self.children, self.parents, self.levels
        flits = message_flits
        blocking = self.variant.blocking_correction
        rate = generalized_channel_rates_batch(c, p, n, inj)  # (levels, K)

        down_service = np.empty_like(rate)
        down_wait = np.empty_like(rate)
        up_service = np.empty_like(rate)
        up_wait = np.empty_like(rate)

        # ---- down sweep: ejection channel first (Eqs. 16-19) ----
        down_service[0] = float(flits)
        down_wait[0] = mg1_waiting_time_batch(
            rate[0], down_service[0], self._scv_batch(down_service[0], flits)
        )
        for l in range(1, n):
            p_block = blocking_probability_batch(
                1, rate[l], rate[l - 1], 1.0 / c, enabled=blocking
            )
            down_service[l] = down_service[l - 1] + charged_wait(
                p_block, down_wait[l - 1]
            )
            down_wait[l] = mg1_waiting_time_batch(
                rate[l], down_service[l], self._scv_batch(down_service[l], flits)
            )

        # ---- up sweep: root level first (Eqs. 20-24) ----
        for u in range(n - 1, -1, -1):
            # Branching at the switch this channel enters (level u + 1).
            p_up = climb_probability(c, n, u + 1, self.variant.conditional_up_probability)
            p_down = 1.0 - p_up
            service = np.zeros(inj.shape)
            if p_up > 0.0:
                if self.variant.multiserver_up:
                    # One p-server channel per switch, total rate p*lambda,
                    # targeted with the full climb probability.
                    servers, group_rate, queue_prob = p, p * rate[u + 1], p_up
                else:
                    # Ablation: p independent M/G/1 queues, each targeted
                    # with a 1/p share of the climb probability.
                    servers, group_rate, queue_prob = 1, rate[u + 1], p_up / p
                p_block_up = blocking_probability_batch(
                    servers, rate[u], group_rate, queue_prob, enabled=blocking
                )
                service = service + p_up * (
                    up_service[u + 1] + charged_wait(p_block_up, up_wait[u + 1])
                )
            # Turn-down branch: c - 1 sibling subtrees, one single-server
            # down channel each (the top level has exactly this form, with
            # p_down == 1; for c = 4 this is Eq. 20's factor 2/3).
            p_block_down = blocking_probability_batch(
                1, rate[u], rate[u], p_down / (c - 1), enabled=blocking
            )
            service = service + p_down * (
                down_service[u] + charged_wait(p_block_down, down_wait[u])
            )
            up_service[u] = service
            scv = self._scv_batch(up_service[u], flits)
            if u == 0:
                # Injection channel <0,1>: no redundant partner (Eq. 24).
                up_wait[0] = mg1_waiting_time_batch(rate[0], up_service[0], scv)
            elif self.variant.multiserver_up:
                up_wait[u] = mgm_waiting_time_batch(p * rate[u], up_service[u], p, scv)
            else:
                up_wait[u] = mg1_waiting_time_batch(rate[u], up_service[u], scv)

        # A point is saturated when *any* channel class diverged; finite
        # points get the Eq. 25 latency W_{0,1} + x_{0,1} + D_bar - 1.
        finite = (
            np.all(np.isfinite(down_service), axis=0)
            & np.all(np.isfinite(down_wait), axis=0)
            & np.all(np.isfinite(up_service), axis=0)
            & np.all(np.isfinite(up_wait), axis=0)
        )
        if METRICS.enabled:
            # Same counter names as the stage-graph engine, so every
            # analytical family reports identical solve telemetry per point.
            METRICS.add("solve.batch")
            METRICS.add("solve.points", float(finite.size))
            METRICS.add(
                "solve.saturated_points", float(finite.size - np.count_nonzero(finite))
            )
        latencies = np.where(
            finite, up_wait[0] + up_service[0] + self.average_distance - 1.0, np.inf
        )
        return BatchSolution(
            message_flits=flits,
            injection_rates=inj,
            injection_service=up_service[0],
            injection_wait=up_wait[0],
            latencies=latencies,
            average_distance=self.average_distance,
            details={
                "rate": rate,
                "down_service": down_service,
                "down_wait": down_wait,
                "up_service": up_service,
                "up_wait": up_wait,
            },
        )

    def solve(self, workload: Workload) -> BftSolution:
        """Resolve all channel service and waiting times at ``workload``.

        Thin wrapper over a one-point :meth:`solve_batch`.
        """
        if not isinstance(workload, Workload):
            raise ConfigurationError(f"workload must be a Workload, got {workload!r}")
        batch = self.solve_batch(
            np.array([workload.injection_rate]), workload.message_flits
        )
        return BftSolution(
            workload=workload,
            levels=self.levels,
            average_distance=self.average_distance,
            **{name: column[:, 0].copy() for name, column in batch.details.items()},
        )

    # --- public API ---------------------------------------------------------------------

    def latency(self, workload: Workload) -> float:
        """Average message latency in cycles (``inf`` past saturation)."""
        return self.solve(workload).latency

    def latency_batch(self, loads, message_flits: int) -> np.ndarray:
        """Average latency for a whole vector of injection rates in one pass.

        ``loads`` are injection rates ``lambda_0`` in messages/cycle/PE
        (``flit_load / message_flits``, i.e. ``Workload.injection_rate``).
        Entry ``k`` equals ``latency(Workload(message_flits, loads[k]))``
        exactly.
        """
        return self.solve_batch(loads, message_flits).latencies

    def stability_batch(self, loads, message_flits: int) -> np.ndarray:
        """Vectorized Eq. 26 stability test (one bool per injection rate)."""
        return self.solve_batch(loads, message_flits).stable_mask

    def latency_at_flit_load(self, flit_load: float, message_flits: int) -> float:
        """Latency with load given in Figure-3 units (flits/cycle/PE)."""
        return self.latency(Workload.from_flit_load(flit_load, message_flits))

    def zero_load_latency(self, message_flits: int) -> float:
        """The contention-free limit ``s/f + D_bar - 1``."""
        return float(message_flits) + self.average_distance - 1.0

    def is_stable(self, workload: Workload) -> bool:
        """True when the model admits a steady state at ``workload``."""
        solution = self.solve(workload)
        if solution.saturated:
            return False
        # Eq. 26: the source must keep up with its own offered rate.
        return workload.injection_rate * solution.injection_service < 1.0

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"GeneralizedFatTreeModel(c={self.children}, p={self.parents}, "
            f"levels={self.levels}, N={self.num_processors}, "
            f"variant={self.variant.label!r})"
        )
