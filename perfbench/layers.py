"""Per-layer tracing: wrappers around the program's public functions.

A traced run installs :class:`Tracer` wrappers on the functions listed in
:data:`TARGETS`.  Each wrapper is set on the name its callers look up
(a module global imported elsewhere by ``from x import f`` is patched in
every importing module), and records one span per call: its name, start,
end and the operation it belongs to.  Spans nest per thread; a span's
self time is its duration minus the time of the spans it encloses.

Totals are kept for every span; the first :data:`KEEP_SPANS` raw spans
are kept in memory and written out as a Chrome trace when the run ends.

:func:`layer_metrics` turns the totals, the program's own counters
(``METRICS.collect()`` snapshots, ``/stats``) and the records' span
aggregates into the ``per_layer`` metrics of ``BENCHMARK.json``.  Every
value is per operation of the workload (per request for ``serve``);
a layer the workload never reaches reports 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from pathlib import Path
from typing import Any, Callable

KEEP_SPANS = 20_000

_MODELS = ("repro.core.bft_model", "repro.core.generic_model", "repro.core.generalized_model")

#: span name -> the ``module:attribute.path`` names it wraps.
TARGETS: dict[str, tuple[str, ...]] = {
    "runs.run": ("repro.runs.runner:Runner.run",),
    "runs.scenario_init": ("repro.runs.scenario:Scenario.__post_init__",),
    "runs.scenario_key": (
        "repro.runs.scenario:scenario_key",
        "repro.runs.runner:scenario_key",
        "repro.serve.cache:scenario_key",
    ),
    "runs.registry_save": ("repro.runs.registry:RunRegistry.save",),
    "runs.index_lookup": ("repro.runs.index:RunIndex.find_by_scenario_key",),
    "runs.index_refresh": ("repro.runs.index:RunIndex.refresh",),
    "core.closed_form": (
        "repro.core.bft_model:ButterflyFatTreeModel.solve_batch",
        "repro.core.generalized_model:GeneralizedFatTreeModel.solve_batch",
        "repro.baselines.dally:DallyKaryNCubeModel.latency_batch",
        "repro.baselines.dally:DallyKaryNCubeModel.stability_batch",
    ),
    "core.stage_graph": ("repro.core.generic_model:ChannelGraphModel.solve_batch",),
    "core.fixed_point": ("repro.core.generic_model:fixed_point_batch",),
    "core.blocking": tuple(f"{m}:blocking_probability_batch" for m in _MODELS),
    "queueing.mgm_wait": tuple(f"{m}:mgm_waiting_time_batch" for m in _MODELS),
    "traffic.flows": (
        "repro.traffic.flows:bft_channel_flows",
        "repro.traffic.flows:single_path_flows",
        "repro.traffic.flows:masked_channel_flows",
        "repro.traffic.analytic:bft_channel_flows",
        "repro.traffic.analytic:single_path_flows",
    ),
    "design.explore": ("repro.design.search:explore", "repro.design:explore"),
    "design.expand": ("repro.design.space:DesignSpace.expand",),
    "design.metrics": ("repro.design.search:metrics_for",),
    "design.pareto": ("repro.design.search:ExplorationResult.pareto",),
    "simulation.replication": (
        "repro.simulation.wormhole_sim:EventDrivenWormholeSimulator.run",
        "repro.simulation.flit_sim:FlitLevelWormholeSimulator.run",
        "repro.simulation.buffered_sim:BufferedWormholeSimulator.run",
    ),
}

#: The flow-propagation caches of the design families (``lru_cache``).
FLOW_CACHES = ("_cached_bft_flows", "_cached_hypercube_flows", "_cached_masked_flows")

LAYERS = ("runs", "core", "queueing", "traffic", "design", "simulation")


class Tracer:
    """Span recorder behind the wrappers (thread-aware, see module doc)."""

    def __init__(self) -> None:
        #: span name -> [calls, inclusive seconds, self seconds].  Inclusive
        #: time counts only the outermost span of a name on the stack.
        self.totals: dict[str, list[float]] = {}
        self.kept: list[tuple[str, int, float, float, int | None]] = []
        #: core spans opened outside any ``runs.run`` span.
        self.core_outside_run = 0
        #: the operation the current spans belong to.
        self.op: int | None = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        #: targets that no longer exist in the program (not wrapped).
        self.missing: list[str] = []

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._close(name, start, end, frame[1], stack)

        return wrapper

    def _close(self, name: str, start: float, end: float, child: float, stack: list) -> None:
        duration = end - start
        if stack:
            stack[-1][1] += duration
        names = [f[0] for f in stack]
        with self._lock:
            total = self.totals.setdefault(name, [0, 0.0, 0.0])
            total[0] += 1
            if name not in names:
                total[1] += duration
            total[2] += duration - child
            if name.startswith("core.") and "runs.run" not in names:
                self.core_outside_run += 1
            if len(self.kept) < KEEP_SPANS:
                self.kept.append((name, threading.get_ident(), start, end, self.op))

    def reset(self) -> None:
        with self._lock:
            self.totals.clear()
            self.kept.clear()
            self.core_outside_run = 0

    # --- installing the wrappers ---------------------------------------------------

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is listed
        in :attr:`missing` and its layer metric reads 0."""
        for name, targets in TARGETS.items():
            for target in targets:
                module_name, _, path = target.partition(":")
                *parents, attr = path.split(".")
                try:
                    owner: Any = importlib.import_module(module_name)
                    for part in parents:
                        owner = getattr(owner, part)
                    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(target)
                    continue
                setattr(owner, attr, self.wrap(name, original))
                self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write the kept spans as a Chrome trace (``chrome://tracing``)."""
        events = [
            {"name": name, "ph": "X", "pid": 1, "tid": tid, "ts": start * 1e6,
             "dur": (end - start) * 1e6, "args": {"op": op}}
            for name, tid, start, end, op in self.kept
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}), encoding="utf-8")

    def summary(self) -> dict:
        return {"totals": self.totals, "core_outside_run": self.core_outside_run,
                "missing": self.missing}


def flow_cache_info() -> tuple[int, int]:
    """(hits, misses) summed over the families' flow caches."""
    families = importlib.import_module("repro.design.families")
    hits = misses = 0
    for name in FLOW_CACHES:
        info = getattr(families, name).cache_info()
        hits += info.hits
        misses += info.misses
    return hits, misses


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def record_span_ms(records: list[dict], span: str) -> float:
    """Total milliseconds of one span over the records' observability blocks."""
    total = 0.0
    for metrics in records:
        spans = metrics.get("observability", {}).get("spans", {})
        if span in spans:
            total += spans[span]["total_s"]
    return 1e3 * total


def layer_metrics(
    *,
    ops: int,
    tracer: dict,
    telemetry: dict,
    records: list[dict],
    flow_cache: tuple[int, int] = (0, 0),
) -> dict[str, float]:
    """The per-layer metrics measured in-process (see the module docstring).

    ``tracer`` is :meth:`Tracer.summary`; ``telemetry`` a ``METRICS``
    snapshot covering the traced pass; ``records`` the run records'
    metrics produced in it; ``flow_cache`` the (hits, misses) delta of
    :func:`flow_cache_info` over it.
    """
    n = max(ops, 1)
    totals = tracer["totals"]
    counters = telemetry.get("counters", {})
    histograms = telemetry.get("histograms", {})

    def incl_ms(name: str) -> float:
        return 1e3 * totals.get(name, [0, 0.0, 0.0])[1] / n

    def calls(name: str) -> float:
        return totals.get(name, [0, 0.0, 0.0])[0] / n

    def count(name: str) -> float:
        return counters.get(name, 0) / n

    def self_ms(prefix: str) -> float:
        return 1e3 * sum(t[2] for k, t in totals.items() if k.startswith(prefix)) / n

    explore_self = self_ms("design.explore")
    out = {
        "runs.run_ms": incl_ms("runs.run"),
        "runs.scenario_init_ms": incl_ms("runs.scenario_init"),
        "runs.scenario_key_ms": incl_ms("runs.scenario_key"),
        "runs.build_ms": record_span_ms(records, "run/build") / n,
        "runs.saturation_ms": record_span_ms(records, "run/saturation") / n,
        "runs.evaluate_ms": record_span_ms(records, "run/evaluate") / n,
        "runs.registry_save_ms": incl_ms("runs.registry_save"),
        "runs.registry_records_read": count("registry.records_read"),
        "runs.index_lookup_ms": incl_ms("runs.index_lookup"),
        "runs.index_refresh_ms": incl_ms("runs.index_refresh"),
        "runs.index_records_indexed": count("index.records_indexed"),
        "core.solve_batch_calls": count("solve.batch"),
        "core.solve_points": count("solve.points"),
        "core.saturated_point_share": _ratio(
            counters.get("solve.saturated_points", 0), counters.get("solve.points", 0)
        ),
        "core.closed_form_ms": incl_ms("core.closed_form"),
        "core.stage_graph_ms": incl_ms("core.stage_graph"),
        "core.fixed_point_ms": incl_ms("core.fixed_point"),
        "core.fixed_point_iterations": histograms.get("fixed_point.iterations", {}).get("total", 0) / n,
        "core.fixed_point_exhausted": count("fixed_point.exhausted"),
        "core.blocking_calls": calls("core.blocking"),
        "core.blocking_ms": incl_ms("core.blocking"),
        "queueing.mgm_wait_calls": calls("queueing.mgm_wait"),
        "queueing.mgm_wait_ms": incl_ms("queueing.mgm_wait"),
        "traffic.flows_calls": calls("traffic.flows"),
        "traffic.flows_ms": incl_ms("traffic.flows"),
        "traffic.flow_cache_hit_ratio": _ratio(flow_cache[0], flow_cache[0] + flow_cache[1]),
        "design.expand_ms": incl_ms("design.expand"),
        "design.metrics_ms": incl_ms("design.metrics"),
        "design.select_ms": explore_self + incl_ms("design.pareto"),
        "design.solves": count("design.solves"),
        "design.cache_hit_ratio": _ratio(
            counters.get("design.cache.hits", 0),
            counters.get("design.cache.hits", 0) + counters.get("design.cache.misses", 0),
        ),
        "simulation.replication_ms": incl_ms("simulation.replication"),
        "simulation.replications_completed": count("sim.replications.completed"),
        "simulation.replications_rescued": count("sim.replications.rescued"),
        "simulation.tagged_delivered": sum(
            r["tagged_delivered"] for m in records for r in m.get("replications") or []
        ) / n,
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = self_ms(layer + ".")
    return out
