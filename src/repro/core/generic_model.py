"""The general wormhole model of Section 2 on arbitrary channel graphs.

The paper's Section 2 is deliberately network-agnostic: given (a) per-channel
arrival rates, (b) routing probabilities ``R_{i|j}``, and (c) the number of
servers per outgoing channel, Eq. 11 resolves every channel's mean service
time by walking the channel dependency structure backwards from the ejection
channels.  This module implements that general recursion over an explicit
*stage graph*:

* a :class:`Stage` is an equivalence class of statistically identical
  queues — e.g. "all up channels from level 2", or "all dimension-3
  channels of the hypercube".  A stage with ``servers = m`` represents
  queues of ``m`` pooled links (the fat-tree's up-link pairs);
* a :class:`Transition` records the probability mass flowing from one stage
  to another, together with the *per-queue* routing probability ``R_{i|j}``
  used by the blocking correction (these differ when a class contains
  several distinct queues, e.g. the four children of a switch).

Each :class:`ChannelGraphModel` compiles its stages once into a positional
plan, and one Eq. 11 kernel runs it: a single reverse topological sweep on
an acyclic graph (fat-trees, e-cube hypercubes), one wave of stages per
depth, or a fixed point (:func:`repro.util.fixedpoint.fixed_point_batch`)
over one wave on a cyclic graph.  Per wave the kernel mixes the targets'
service times and charged waits (Eqs. 3, 9, 11) and then evaluates the
wave's M/G/m waits (Eqs. 4-8) with the unchecked cores of
:mod:`repro.queueing`, under one ``np.errstate`` per solve; ``inf``
propagates through the ``rho < 1`` tests rather than through masks.  This
is the repo's only solver of the recursion.  :func:`generalized_fattree_stage_graph`
derives the paper's Section-3 fat-tree equations from it (the fat-tree
model answers from that graph; :func:`bft_stage_graph` is its ``(4, 2)``
instance), and :func:`hypercube_stage_graph` applies it to a binary
hypercube — the "other networks" the paper's abstract refers to.

The recursion is batched: channel rates are linear in the injection rate,
so one stage graph describes a whole load sweep, and ``solve_batch`` /
``latency_batch`` evaluate every scale factor in one NumPy pass (a cyclic
graph's fixed point freezes saturated points at ``inf`` while the rest
converge).  The scalar ``solve()`` is a cached one-point batch, which
``latency()`` and ``injection_service()`` read.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..analysis.findings import ERROR, Finding
from ..config import Workload
from ..errors import ConfigurationError, ConvergenceError
from ..obs import METRICS, trace_span
from ..queueing.distributions import _scv
from ..queueing.mgm import _mgm_wait
from ..topology.properties import generalized_average_distance, hypercube_average_distance
from ..util.fixedpoint import fixed_point_batch
from ..util.validation import check_fattree_shape, check_power_of
from .batch import _charged, as_injection_rates
from .blocking import _blocking_factor
from .rates import climb_probability, generalized_channel_rates
from .variants import ModelVariant

__all__ = [
    "Transition",
    "Stage",
    "StageSolution",
    "StageBatchSolution",
    "EntryPoint",
    "ChannelGraphModel",
    "bft_stage_graph",
    "generalized_fattree_stage_graph",
    "hypercube_stage_graph",
]


@dataclass(frozen=True)
class Transition:
    """Routing edge between stages.

    Attributes
    ----------
    target:
        Name of the downstream stage.
    probability:
        Total probability mass a message on the source stage sends to the
        target *class* (weights the service-time mixture, Eq. 3).
    queue_probability:
        ``R_{i|j}`` toward one specific queue of the target class (enters
        the blocking correction, Eq. 10).  Defaults to ``probability``;
        pass e.g. ``probability / 4`` when the class consists of four
        interchangeable single-server queues.
    """

    target: str
    probability: float
    queue_probability: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.probability <= 1.0):
            raise ConfigurationError(
                f"transition probability must be in [0,1], got {self.probability!r}"
            )
        qp = self.queue_probability
        if qp is not None and not (0.0 <= qp <= 1.0):
            raise ConfigurationError(
                f"queue_probability must be in [0,1], got {qp!r}"
            )

    @property
    def effective_queue_probability(self) -> float:
        return self.probability if self.queue_probability is None else self.queue_probability


@dataclass(frozen=True)
class Stage:
    """A class of statistically identical channels (see module docstring).

    ``rate_per_server`` is the message rate carried by one physical link;
    the queue seen by an arriving worm has ``servers`` links and total rate
    ``servers * rate_per_server``.  A stage with no transitions is terminal
    (an ejection channel) and has service time exactly one message length.
    """

    name: str
    rate_per_server: float
    servers: int = 1
    transitions: tuple[Transition, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.rate_per_server < 0:
            raise ConfigurationError(
                f"stage {self.name!r}: rate_per_server must be >= 0"
            )
        if not isinstance(self.servers, int) or self.servers < 1:
            raise ConfigurationError(
                f"stage {self.name!r}: servers must be a positive integer"
            )
        total = sum(t.probability for t in self.transitions)
        if self.transitions and not math.isclose(total, 1.0, abs_tol=1e-9):
            raise ConfigurationError(
                f"stage {self.name!r}: transition probabilities sum to {total}, not 1"
            )

    @property
    def total_rate(self) -> float:
        """Total arrival rate of one queue of this class."""
        return self.servers * self.rate_per_server

    @property
    def is_terminal(self) -> bool:
        return not self.transitions


@dataclass(frozen=True)
class StageSolution:
    """Resolved mean service time and queue wait of one stage."""

    service: float
    wait: float

    @property
    def finite(self) -> bool:
        return math.isfinite(self.service) and math.isfinite(self.wait)


@dataclass(frozen=True)
class EntryPoint:
    """One injection stage of a (possibly asymmetric) workload.

    ``weight`` is the share of total traffic injected through the stage
    (normalized by the model); ``distance`` is the mean channel count —
    injection and ejection channels included — of messages entering there,
    so the Eq. 25 latency generalizes to
    ``L = sum_e w_e * (W_e + x_e + D_e) - 1``.
    """

    name: str
    weight: float
    distance: float

    def __post_init__(self) -> None:
        if not (self.weight > 0.0) or not math.isfinite(self.weight):
            raise ConfigurationError(
                f"entry {self.name!r}: weight must be positive, got {self.weight!r}"
            )
        if not (self.distance > 0.0) or not math.isfinite(self.distance):
            raise ConfigurationError(
                f"entry {self.name!r}: distance must be positive, got {self.distance!r}"
            )


@dataclass(frozen=True)
class StageBatchSolution:
    """One stage's (service, wait) arrays over a batch of operating points.

    Both arrays have shape ``(K,)`` — one entry per rate scale passed to
    :meth:`ChannelGraphModel.solve_batch`.
    """

    service: np.ndarray
    wait: np.ndarray

    @property
    def finite_mask(self) -> np.ndarray:
        """True where both moments are finite (steady state per point)."""
        return np.isfinite(self.service) & np.isfinite(self.wait)


class _Wave(NamedTuple):
    """Stages solved together: one topological depth, or a whole cyclic graph."""

    stages: slice  # plan positions of its stages
    edges: slice  # plan positions of their transitions
    targets: np.ndarray  # target position of each of those transitions
    fanout: int | None  # transitions per stage, None when stages differ
    groups: tuple[tuple[int, slice], ...]  # (servers, stage slice) per server count


class _Kernel:
    """The Eq. 11 kernel of one solve: the compiled plan plus the solve's constants.

    Built once per solve, inside the solve's one ``np.errstate``: the
    Eq. 10 factor of every transition, the mask of factors that are zero
    (Eq. 9 then charges no wait, even a diverged one) and every stage's
    total arrival rate ``m * lambda``.  The acyclic sweep and the cyclic
    fixed point both run :meth:`mix` and :meth:`wait`.
    """

    def __init__(self, model: "ChannelGraphModel", rates: np.ndarray) -> None:
        self.model = model
        self.blocks = model._blocking(rates)
        self.free = self.blocks == 0.0
        self.total = model._servers * rates
        self.scv_mode = model.variant.scv_mode

    def mix(self, wave: _Wave, service, wait, out: np.ndarray) -> None:
        """Write the wave's Eq. 11 service-time mixtures into ``out``.

        Each stage's terms are summed left to right in transition order:
        as one add per transition over a ``(stages, fanout, K)`` view when
        every stage of the wave has the same fanout (``base`` is 0 for a
        stage with transitions), by ``np.add.at`` otherwise.
        """
        plan, rows, e, t = self.model, wave.stages, wave.edges, wave.targets
        if wave.fanout == 0:
            out[rows] = plan._base[rows]
            return
        charge = _charged(self.blocks[e], wait[t], self.free[e])
        terms = plan._probability[e] * (service[t] + charge)
        if wave.fanout is None:
            out[rows] = plan._base[rows]
            np.add.at(out, plan._source[e], terms)
            return
        terms = terms.reshape(-1, wave.fanout, terms.shape[1])
        total = terms[:, 0]
        for j in range(1, wave.fanout):
            total = total + terms[:, j]
        out[rows] = total

    def wait(self, wave: _Wave, service, out: np.ndarray) -> None:
        """Write the wave's M/G/m waits into ``out`` (``inf`` where diverged)."""
        flits = self.model.message_flits
        for m, rows in wave.groups:
            x = service[rows]
            out[rows] = _mgm_wait(self.total[rows], x, m, _scv(self.scv_mode, x, flits))


def _runs(keys, start: int) -> list[tuple]:
    """``(key, slice)`` per run of equal consecutive ``keys``, from ``start``."""
    runs: list[tuple] = []
    for key, run in itertools.groupby(keys):
        stop = start + len(list(run))
        runs.append((key, slice(start, stop)))
        start = stop
    return runs


class ChannelGraphModel:
    """General wormhole-latency solver over a stage graph (Eqs. 3-11).

    Parameters
    ----------
    stages:
        The channel classes; names must be unique and transition targets
        must exist.
    message_flits:
        Worm length ``s/f``.
    entry:
        Name of the injection stage; its wait/service feed the latency
        formula (Eq. 1).  Symmetric-workload form — exactly one of
        ``entry`` and ``entries`` must be given.
    average_distance:
        Mean path length ``D_bar`` in channels (including injection and
        ejection channels), used by Eq. 2.  Required with ``entry``.
    entries:
        Asymmetric-workload form: several weighted :class:`EntryPoint`
        records (one per injection stage), each with its own mean channel
        distance.  Latency and the Eq. 26 stability test are evaluated per
        entry and traffic-weighted (the pattern-aware builders in
        :mod:`repro.traffic.analytic` use this).
    variant:
        Approximation switches shared with the fat-tree model.
    reference_rate:
        The per-PE injection rate the graph's stage rates were built at;
        ``latency_batch`` / ``stability_batch`` convert absolute load grids
        to scale factors against it.  Defaults to the entry stage's
        ``rate_per_server``.
    """

    def __init__(
        self,
        stages: list[Stage],
        *,
        message_flits: int,
        entry: str | None = None,
        average_distance: float | None = None,
        entries: tuple[EntryPoint, ...] | None = None,
        variant: ModelVariant | None = None,
        reference_rate: float | None = None,
    ) -> None:
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise ConfigurationError("stage names must be unique")
        self.stages = {s.name: s for s in stages}
        for s in stages:
            for t in s.transitions:
                if t.target not in self.stages:
                    raise ConfigurationError(
                        f"stage {s.name!r} references unknown target {t.target!r}"
                    )
        if (entry is None) == (entries is None):
            raise ConfigurationError(
                "exactly one of entry and entries must be provided"
            )
        if entries is None:
            if average_distance is None:
                raise ConfigurationError("average_distance is required with entry")
            entries = (EntryPoint(entry, 1.0, average_distance),)
        elif not entries:
            raise ConfigurationError("entries must be non-empty")
        total_weight = sum(e.weight for e in entries)
        entries = tuple(
            EntryPoint(e.name, e.weight / total_weight, e.distance) for e in entries
        )
        for e in entries:
            if e.name not in self.stages:
                raise ConfigurationError(f"entry stage {e.name!r} not defined")
        if not isinstance(message_flits, int) or message_flits <= 0:
            raise ConfigurationError("message_flits must be a positive integer")
        if average_distance is None:
            average_distance = sum(e.weight * e.distance for e in entries)
        if average_distance <= 0:
            raise ConfigurationError("average_distance must be positive")
        if reference_rate is not None and reference_rate <= 0.0:
            raise ConfigurationError("reference_rate must be positive")
        self.message_flits = message_flits
        self.entries = entries
        self.entry = entry if entry is not None else max(entries, key=lambda e: e.weight).name
        self.average_distance = average_distance
        self.variant = variant or ModelVariant.paper()
        self.reference_rate = reference_rate
        self._compile()
        # The graph is immutable, so the unit-scale solution is computed at
        # most once per instance (latency() and injection_service() share it).
        self._solution: dict[str, StageSolution] | None = None
        self._traced = True  # see generalized_fattree_stage_graph

    # --- structure ------------------------------------------------------------

    def _compile(self) -> None:
        """Compile the stages into the positional plan both solvers run.

        Stages are ordered by depth (a cyclic graph is one depth), servers
        and name, so waves and server groups are slices.  Per stage: rate
        and servers; per nonzero transition, grouped by source: target
        position, probability, queue probability and target servers.  Per
        wave: its transitions' targets, and its fanout when every stage of
        the wave has the same number of transitions.
        """
        depth = self._depths()
        self._acyclic = len(depth) == len(self.stages)
        if not self._acyclic:
            depth = dict.fromkeys(self.stages, 0)
        self._names = sorted(self.stages, key=lambda n: (depth[n], self.stages[n].servers, n))
        self._position = {name: i for i, name in enumerate(self._names)}
        stages = [self.stages[name] for name in self._names]
        self._rate = np.array([s.rate_per_server for s in stages])
        self._servers = np.array([float(s.servers) for s in stages])[:, np.newaxis]
        self._entry_rows = [(self._position[e.name], e.weight, e.distance) for e in self.entries]
        edges = [
            (i, self._position[t.target], t.probability,
             t.effective_queue_probability, self.stages[t.target].servers)
            for i, s in enumerate(stages) for t in s.transitions if t.probability > 0.0
        ]
        source, target, probability, queue_probability, servers = (
            np.array(edges, dtype=float).reshape(-1, 5).T
        )
        self._source, self._target = source.astype(int), target.astype(int)
        self._probability = probability[:, np.newaxis]
        self._queue_probability = queue_probability[:, np.newaxis]
        self._target_servers = servers.astype(int)[:, np.newaxis]
        # A terminal stage serves one message length; the others sum from 0.
        terminal = ~np.isin(np.arange(len(stages)), self._source)
        self._base = np.where(terminal, float(self.message_flits), 0.0)[:, np.newaxis]
        bounds = np.searchsorted(self._source, np.arange(len(stages) + 1))
        self._waves = []
        for _, rows in _runs([depth[name] for name in self._names], 0):
            edges = slice(bounds[rows.start], bounds[rows.stop])
            # Fat-tree and hypercube waves have one fanout per wave, so their
            # Eq. 11 sums need no np.add.at; pattern and fault graphs may not.
            fanouts = set(np.diff(bounds[rows.start:rows.stop + 1]).tolist())
            self._waves.append(_Wave(
                rows, edges, self._target[edges],
                fanouts.pop() if len(fanouts) == 1 else None,
                tuple(_runs([s.servers for s in stages[rows]], rows.start)),
            ))

    def _depths(self) -> dict[str, int]:
        """Kahn's algorithm over the nonzero transitions (the ones the plan
        keeps): stage depths (terminals 0); cycle stages get none."""
        targets = {
            name: [t.target for t in s.transitions if t.probability > 0.0]
            for name, s in self.stages.items()
        }
        pending = {name: len(ts) for name, ts in targets.items()}
        upstream: dict[str, list[str]] = {name: [] for name in self.stages}
        for name, ts in targets.items():
            for target in ts:
                upstream[target].append(name)
        ready = [name for name, d in pending.items() if d == 0]
        depth: dict[str, int] = {}
        while ready:
            name = ready.pop()
            depth[name] = max((depth[t] + 1 for t in targets[name]), default=0)
            for source in upstream[name]:
                pending[source] -= 1
                if pending[source] == 0:
                    ready.append(source)
        return depth

    @property
    def is_acyclic(self) -> bool:
        """True when one reverse sweep solves the graph exactly."""
        return self._acyclic

    def _cycle_members(self) -> list[str]:
        """Stage names on or feeding into a cycle (empty when acyclic)."""
        return sorted(set(self.stages) - set(self._depths()))

    def check(
        self, *, expect_acyclic: bool | None = None, load_scale: float = 1.0
    ) -> list[Finding]:
        """Static pre-solve checks; returns findings instead of solving.

        Verifies — without running any fixed point — that (a) the entry
        weights still sum to 1 (REP103), (b) the graph structure matches
        the solver the caller intends to use (REP102: ``expect_acyclic=True``
        demands a feed-forward graph; ``False``/``None`` accepts cycles,
        which the batched fixed point handles), and (c) a *necessary*
        stability condition holds at ``load_scale`` times the built rates
        (REP104): service of a worm takes at least ``message_flits`` cycles,
        so a stage with ``total_rate * scale * message_flits >= servers``
        is certainly saturated (Eq. 26 can only be tighter).
        """
        findings: list[Finding] = []
        total_weight = sum(e.weight for e in self.entries)
        if not math.isclose(total_weight, 1.0, rel_tol=0.0, abs_tol=1e-9) or not all(
            math.isfinite(e.weight) and e.weight >= 0.0 for e in self.entries
        ):
            findings.append(
                Finding(
                    rule="REP103",
                    severity=ERROR,
                    message=(
                        f"entry-point weights sum to {total_weight!r}, expected 1"
                    ),
                    channel="entries",
                    hint="entry weights must form a probability distribution",
                )
            )
        if expect_acyclic is True and not self.is_acyclic:
            members = self._cycle_members()
            shown = ", ".join(members[:6]) + ("..." if len(members) > 6 else "")
            findings.append(
                Finding(
                    rule="REP102",
                    severity=ERROR,
                    message=(
                        "stage graph is cyclic but the feed-forward solver was "
                        f"requested; cycle-reachable stages: {shown}"
                    ),
                    channel=members[0] if members else "graph",
                    hint="use the cyclic batch solver or fix the transition graph",
                )
            )
        if math.isfinite(load_scale) and load_scale > 0.0:
            for name in sorted(self.stages):
                stage = self.stages[name]
                demand = stage.total_rate * load_scale * self.message_flits
                if demand >= stage.servers:
                    findings.append(
                        Finding(
                            rule="REP104",
                            severity=ERROR,
                            message=(
                                f"stage {name!r} is saturated at the requested "
                                f"load: rho >= {demand / stage.servers:.3f} even "
                                "at the minimal service time "
                                f"({self.message_flits} flit cycles)"
                            ),
                            channel=name,
                            hint="lower the injection rate below saturation",
                        )
                    )
        return findings

    # --- solving ----------------------------------------------------------------

    def _blocking(self, rates: np.ndarray) -> np.ndarray:
        """Eq. 10 factor of every transition (needs only rates; inputs checked at build)."""
        if not self.variant.blocking_correction:
            return np.ones((self._source.size, rates.shape[1]))
        m = self._target_servers
        inc, out = rates[self._source], m * rates[self._target]
        return _blocking_factor(m, inc, out, self._queue_probability)

    def _solve(self, scales: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the plan: ``(S, K)`` service and wait, and the steady-state mask.

        Untraced (the public entry points open the span).  A diverged
        service yields an ``inf`` wait, so the waits decide the mask.
        One ``np.errstate`` covers the whole solve: ``inf`` and ``nan``
        from diverged points stay in the masked entries.
        """
        if METRICS.enabled:
            METRICS.add("solve.batch")
            METRICS.add("solve.points", float(scales.size))
        rates = np.multiply.outer(self._rate, scales)
        wait = np.empty_like(rates)
        with np.errstate(all="ignore"):
            kernel = _Kernel(self, rates)
            if self._acyclic:
                service = np.empty_like(rates)
                for wave in self._waves:
                    kernel.mix(wave, service, wait, service)
                    kernel.wait(wave, service, wait)
            else:
                service = self._fixed_point(kernel, rates.shape)
                kernel.wait(self._waves[0], service, wait)
        finite = np.all(np.isfinite(wait), axis=0)
        if METRICS.enabled:
            METRICS.add("solve.saturated_points", float(np.count_nonzero(~finite)))
        return service, wait, finite

    def _fixed_point(self, kernel: _Kernel, shape: tuple[int, int]) -> np.ndarray:
        """Iterate the Eq. 11 kernel over the graph's one wave to a fixed point."""
        (wave,) = self._waves

        def step(x: np.ndarray) -> np.ndarray:
            wait, out = np.empty_like(x), np.empty_like(x)
            kernel.wait(wave, x, wait)
            kernel.mix(wave, x, wait, out)
            return out

        n_points = shape[1]
        x0 = np.full(shape, float(self.message_flits))
        # Near saturation the iteration's contraction rate approaches 1
        # (critical slowing down), so a strict 1e-12 tolerance can exhaust
        # any budget while the answer is already correct to far better than
        # a millicycle — e.g. asymmetric degraded-fabric traffic on a torus.
        # An exhausted budget is therefore accepted when the residual is
        # below this floor, and diagnosed as a ConvergenceError otherwise.
        residual_floor = 1e-6
        with trace_span("solve/fixed_point", points=n_points):
            result = fixed_point_batch(
                step, x0, tol=1e-12, max_iter=20_000, damping=0.5
            )
        if not result.converged:
            if not result.residual <= residual_floor:
                worst = result.worst_component
                channel = self._names[worst] if worst is not None else None
                active = int(np.sum(np.all(np.isfinite(result.value), axis=0)))
                raise ConvergenceError(
                    f"cyclic channel-graph solve did not converge"
                    f"{f' (worst channel {channel!r})' if channel else ''}: "
                    f"batched fixed point not reached after {result.iterations} "
                    f"iterations (residual {result.residual:.3e}, worst component "
                    f"{worst}, active points {active}/{n_points})",
                    iterations=result.iterations,
                    residual=result.residual,
                    worst_component=worst,
                    worst_channel=channel,
                )
            METRICS.add("fixed_point.exhausted_accepted")
        return result.value

    def _span(self, scales: np.ndarray):
        if not self._traced:
            return contextlib.nullcontext()
        return trace_span("solve/stage_graph", stages=len(self._names), points=scales.size)

    def solve_batch(self, rate_scales) -> dict[str, StageBatchSolution]:
        """Resolve every stage over a vector of traffic scale factors.

        Channel rates are linear in the injection rate, so one stage graph
        built at a reference workload describes a whole load sweep: entry
        ``k`` of the result scales every stage's rate by ``rate_scales[k]``.
        """
        _, service, wait, _ = self.stage_rows(rate_scales, self._names)
        return {n: StageBatchSolution(service[i], wait[i]) for i, n in enumerate(self._names)}

    def stage_rows(self, rate_scales, names) -> tuple[np.ndarray, ...]:
        """One solve read as ``(rate, service, wait, latency)`` of the named stages.

        ``(len(names), K)`` rows of per-server rate and the two moments
        (``inf`` where diverged), and the Eq. 25 latency per scale factor.
        """
        scales = as_injection_rates(rate_scales)
        rows = [self._position[name] for name in names]
        with self._span(scales):
            service, wait, finite = self._solve(scales)
        rate = np.multiply.outer(self._rate[rows], scales)
        return rate, service[rows], wait[rows], self._latency_from(service, wait, finite)

    def solve(self) -> dict[str, StageSolution]:
        """Resolve every stage's (service, wait) pair at the built workload.

        Thin wrapper over a one-point :meth:`solve_batch` at scale 1.  The
        stage graph is immutable, so the result is computed once and cached;
        treat the returned mapping as read-only.
        """
        if self._solution is None:
            batch = self.solve_batch(np.ones(1))
            self._solution = {
                name: StageSolution(float(s.service[0]), float(s.wait[0]))
                for name, s in batch.items()
            }
        return self._solution

    # --- outputs ------------------------------------------------------------------

    def _check_flits(self, message_flits: int | None) -> None:
        if message_flits is not None and message_flits != self.message_flits:
            raise ConfigurationError(
                f"stage graph was built for message_flits={self.message_flits}, "
                f"got {message_flits}"
            )

    def _reference_rate(self) -> float:
        reference = self.reference_rate or self.stages[self.entry].rate_per_server
        if reference <= 0.0:
            raise ConfigurationError(
                "load-grid evaluation needs a graph built at a positive "
                "reference rate (rates scale linearly from that reference)"
            )
        return reference

    def _latency_from(self, service: np.ndarray, wait: np.ndarray, finite) -> np.ndarray:
        """Traffic-weighted Eq. 25 over the entry points (``inf`` past saturation)."""
        with np.errstate(invalid="ignore"):
            total = sum(w * (wait[i] + service[i] + d) for i, w, d in self._entry_rows)
        return np.where(finite, total - 1.0, np.inf)

    def _one_point(self) -> tuple[np.ndarray, np.ndarray, np.bool_]:
        """The cached :meth:`solve` as positional one-point arrays."""
        solved = self.solve()
        service, wait = np.array([[solved[n].service, solved[n].wait] for n in self._names]).T
        return service, wait, np.all(np.isfinite(wait))

    def latency(self) -> float:
        """Average latency via Eqs. 1-2 (``inf`` past saturation).

        The traffic-weighted mean of the per-source latencies
        ``W_e + x_e + D_e - 1``, read from the cached :meth:`solve`.
        """
        return float(self._latency_from(*self._one_point()))

    def injection_service(self) -> float:
        """Traffic-weighted entry service time (drives the Eq. 26 test)."""
        service = self._one_point()[0]
        return float(sum(w * service[i] for i, w, _ in self._entry_rows))

    def latency_batch(self, loads, message_flits: int | None = None) -> np.ndarray:
        """Average latency over a vector of injection rates in one pass.

        ``loads`` are absolute injection rates ``lambda_0`` per PE; they are
        converted to scale factors against :attr:`reference_rate` (by
        default the entry stage's built rate, which therefore must be
        positive).  ``message_flits``, when given, must match the graph's
        fixed worm length — the parameter exists for signature parity with
        the other models' ``latency_batch``.
        """
        self._check_flits(message_flits)
        scales = as_injection_rates(loads) / self._reference_rate()
        with self._span(scales):
            return self._latency_from(*self._solve(scales))

    def stability_batch(self, loads, message_flits: int | None = None) -> np.ndarray:
        """Vectorized Eq. 26 stability test (one bool per injection rate).

        A point is stable when every stage admits a steady state *and*
        every entry keeps up with its own offered rate
        (``lambda_e * x_e < 1``).  This is the API the vectorized
        saturation search (:func:`repro.core.throughput.saturation_injection_rate`)
        consumes, so stage-graph models — including the pattern-aware ones —
        saturation-search through the batch engine.
        """
        self._check_flits(message_flits)
        rates = as_injection_rates(loads)
        reference = self._reference_rate()
        with self._span(rates):
            service, _, finite = self._solve(rates / reference)
        with np.errstate(invalid="ignore"):
            for i, _, _ in self._entry_rows:
                finite &= self._rate[i] * rates / reference * service[i] < 1.0
        return finite

    def is_stable(self, workload: Workload) -> bool:
        """Eq. 26 stability of one operating point (enables saturation search)."""
        if not isinstance(workload, Workload):
            raise ConfigurationError(f"workload must be a Workload, got {workload!r}")
        return bool(self.stability_batch(workload.injection_rate, workload.message_flits)[0])


# --- ready-made stage graphs -------------------------------------------------------


def bft_stage_graph(
    num_processors: int,
    workload: Workload,
    variant: ModelVariant | None = None,
) -> ChannelGraphModel:
    """Express the butterfly fat-tree in the general stage-graph form.

    The ``(4, 2)`` instance of :func:`generalized_fattree_stage_graph`:
    stages ``up0 .. up{n-1}`` (``up0`` is the injection channel) and
    ``down0 .. down{n-1}`` (``down0`` is the ejection channel), indexed by
    the lower level exactly like :class:`BftSolution`'s arrays.
    """
    n = check_power_of("num_processors", num_processors, 4)
    return generalized_fattree_stage_graph(4, 2, n, workload, variant)


def generalized_fattree_stage_graph(
    children: int,
    parents: int,
    levels: int,
    workload: Workload,
    variant: ModelVariant | None = None,
) -> ChannelGraphModel:
    """Express a generalized (c, p) fat-tree in the stage-graph form.

    Stage names: ``up0 .. up{n-1}`` and ``down0 .. down{n-1}``, indexed by
    the lower level of the channel.  Solving it *is* Section 3's closed form
    (Eqs. 16-24), which
    :class:`~repro.core.generalized_model.GeneralizedFatTreeModel` answers
    from: down channels fan out over ``c`` children; up channels pool ``p``
    links into one M/G/p queue fed ``p * lambda`` (the published correction
    to Eqs. 21/23) or turn down into one of ``c - 1`` siblings; the
    injection channel ``up0`` stays M/G/1 (Eq. 24).
    """
    variant = variant or ModelVariant.paper()
    check_fattree_shape(children, parents, levels)
    c, p, n = children, parents, levels
    rate = generalized_channel_rates(c, p, n, workload.injection_rate)

    # Down channels: down0 terminal; down{l} feeds down{l-1} through one of
    # c interchangeable children.
    stages: list[Stage] = [Stage("down0", rate_per_server=float(rate[0]))]
    for l in range(1, n):
        stages.append(
            Stage(
                f"down{l}",
                rate_per_server=float(rate[l]),
                transitions=(Transition(f"down{l-1}", 1.0, 1.0 / c),),
            )
        )
    # Up channels: p-server bundles above the injection level.
    for u in range(n - 1, -1, -1):
        p_up = climb_probability(c, n, u + 1, variant.conditional_up_probability)
        p_down = 1.0 - p_up
        transitions: list[Transition] = []
        if p_up > 0.0:
            queue_prob = p_up if variant.multiserver_up else p_up / p
            transitions.append(Transition(f"up{u+1}", p_up, queue_prob))
        transitions.append(Transition(f"down{u}", p_down, p_down / (c - 1)))
        servers = p if (u >= 1 and variant.multiserver_up) else 1
        stages.append(
            Stage(
                f"up{u}",
                rate_per_server=float(rate[u]),
                servers=servers,
                transitions=tuple(transitions),
            )
        )
    graph = ChannelGraphModel(
        stages,
        message_flits=workload.message_flits,
        entry="up0",
        average_distance=generalized_average_distance(c, n),
        variant=variant,
    )
    graph._traced = False  # a fat-tree solve is the closed form: no solve span
    return graph


def hypercube_stage_graph(
    dimension: int,
    workload: Workload,
    variant: ModelVariant | None = None,
) -> ChannelGraphModel:
    """The general model instantiated on a binary hypercube with e-cube routing.

    E-cube resolves address bits from the highest dimension down, so the
    stage graph ``inject -> dim{d-1} -> ... -> dim0 -> eject`` is acyclic.
    Under uniform traffic every dimension-``k`` channel carries
    ``lambda_0 * 2^(d-1) / (2^d - 1)``; after crossing dimension ``k`` the
    next differing dimension is ``j < k`` with probability ``2^(j-k)`` and
    the message ejects with probability ``2^-k``.
    """
    variant = variant or ModelVariant.paper()
    if not isinstance(dimension, int) or dimension < 1:
        raise ConfigurationError(f"dimension must be a positive integer, got {dimension!r}")
    d = dimension
    n_nodes = 1 << d
    lam0 = workload.injection_rate
    lam_dim = lam0 * (n_nodes // 2) / (n_nodes - 1)

    stages: list[Stage] = [Stage("eject", rate_per_server=lam0)]
    for k in range(d):
        transitions = [
            Transition(f"dim{j}", 2.0 ** (j - k)) for j in range(k - 1, -1, -1)
        ]
        transitions.append(Transition("eject", 2.0**-k))
        stages.append(
            Stage(
                f"dim{k}",
                rate_per_server=lam_dim,
                transitions=tuple(transitions),
            )
        )
    inject_transitions = tuple(
        Transition(f"dim{k}", (1 << k) / (n_nodes - 1)) for k in range(d)
    )
    stages.append(
        Stage("inject", rate_per_server=lam0, transitions=inject_transitions)
    )
    return ChannelGraphModel(
        stages,
        message_flits=workload.message_flits,
        entry="inject",
        average_distance=hypercube_average_distance(d),
        variant=variant,
    )
