"""The fat-tree model of Section 3, for any ``(c, p)`` fat-tree.

The paper's 4-2 butterfly fat-tree is the ``(c, p) = (4, 2)`` member of a
family in which every switch has ``c`` child ports and ``p`` parent ports
(M/G/p up channels; the conclusion's "queuing models with more than two
servers"), so :class:`~repro.core.bft_model.ButterflyFatTreeModel` is the
``(4, 2)`` instance of :class:`GeneralizedFatTreeModel`.

Section 3's down and up sweeps (Eqs. 16-24) are the Section 2 recursion
(Eqs. 3-11) on the fat-tree's acyclic channel graph, so the model has no
solver of its own: it answers every query from
:func:`~repro.core.generic_model.generalized_fattree_stage_graph`, built
once per message length at unit injection rate (rates are linear in it).
``solve_batch`` / ``solve`` reshape the graph's ``up{l}`` / ``down{l}``
stage arrays into per-level rows; scalar answers are one-point batches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import Workload
from ..errors import ConfigurationError
from ..topology.properties import generalized_average_distance
from ..util.validation import check_fattree_shape
from .batch import BatchSolution, as_injection_rates
from .generic_model import ChannelGraphModel, generalized_fattree_stage_graph
from .rates import (
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
        self._graphs: dict[int, ChannelGraphModel] = {}

    def _graph(self, message_flits: int) -> ChannelGraphModel:
        """The model's stage graph for ``message_flits``, built once at unit rate."""
        if not isinstance(message_flits, int) or message_flits <= 0:
            raise ConfigurationError("message_flits must be a positive integer")
        if message_flits not in self._graphs:
            self._graphs[message_flits] = generalized_fattree_stage_graph(
                self.children, self.parents, self.levels,
                Workload(message_flits, 1.0), self.variant,
            )
        return self._graphs[message_flits]

    # --- solver ----------------------------------------------------------------------

    def solve_batch(self, injection_rates, message_flits: int) -> BatchSolution:
        """Resolve every channel class over a whole vector of injection rates.

        One stage-graph solve, reshaped into per-level ``details`` rows of
        shape ``(levels, K)`` (``inf`` past saturation); column ``k`` is
        bit-identical to the scalar solve at ``injection_rates[k]``.
        """
        inj = as_injection_rates(injection_rates)
        names = [f"{kind}{l}" for kind in ("up", "down") for l in range(self.levels)]
        rate, service, wait, latencies = self._graph(message_flits).stage_rows(inj, names)
        up, down = slice(0, self.levels), slice(self.levels, None)
        return BatchSolution(
            message_flits=message_flits,
            injection_rates=inj,
            injection_service=service[0],
            injection_wait=wait[0],
            latencies=latencies,
            average_distance=self.average_distance,
            details={
                "rate": rate[up],
                "down_service": service[down],
                "down_wait": wait[down],
                "up_service": service[up],
                "up_wait": wait[up],
            },
        )

    def solve(self, workload: Workload) -> BftSolution:
        """Resolve all channel service and waiting times at ``workload``.

        Thin wrapper over a one-point :meth:`solve_batch`.
        """
        if not isinstance(workload, Workload):
            raise ConfigurationError(f"workload must be a Workload, got {workload!r}")
        batch = self.solve_batch(np.array([workload.injection_rate]), workload.message_flits)
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
        return self._graph(message_flits).latency_batch(loads)

    def stability_batch(self, loads, message_flits: int) -> np.ndarray:
        """Vectorized Eq. 26 stability test (one bool per injection rate)."""
        return self._graph(message_flits).stability_batch(loads)

    def latency_at_flit_load(self, flit_load: float, message_flits: int) -> float:
        """Latency with load given in Figure-3 units (flits/cycle/PE)."""
        return self.latency(Workload.from_flit_load(flit_load, message_flits))

    def zero_load_latency(self, message_flits: int) -> float:
        """The contention-free limit ``s/f + D_bar - 1``."""
        return float(message_flits) + self.average_distance - 1.0

    def is_stable(self, workload: Workload) -> bool:
        """True when the model admits a steady state at ``workload`` (Eq. 26)."""
        if not isinstance(workload, Workload):
            raise ConfigurationError(f"workload must be a Workload, got {workload!r}")
        return bool(self.stability_batch(workload.injection_rate, workload.message_flits)[0])

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"GeneralizedFatTreeModel(c={self.children}, p={self.parents}, "
            f"levels={self.levels}, N={self.num_processors}, "
            f"variant={self.variant.label!r})"
        )
