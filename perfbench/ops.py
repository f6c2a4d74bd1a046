"""Execute catalog operations through the program's public entry points.

Every call looks its target up on the module at call time (``runs.Runner``,
``design.explore``, ...), so the wrappers that :mod:`layers` installs for
a traced run see these calls too.
"""

from __future__ import annotations

from typing import Any

import checks
import repro.core.sweep as sweep
import repro.design as design
import repro.design.evaluate as design_evaluate
import repro.design.families as families
import repro.faults as faults
import repro.runs as runs
import repro.traffic.spec as traffic_spec

_RUNNER = runs.Runner()


def _space(spec: dict) -> Any:
    builders = {
        "bft": lambda p: design.bft_space(p["processors"]),
        "hypercube": lambda p: design.hypercube_space(p["dimension"]),
        "generalized-fattree": lambda p: design.generalized_fattree_space(
            p["children"], p["parents"], p["levels"]
        ),
        "kary-ncube": lambda p: design.kary_ncube_space(p["radix"], p["dimensions"]),
    }
    return design.DesignSpace(
        families=tuple(builders[f["family"]](f["params"]) for f in spec["families"]),
        message_lengths=tuple(spec["message_lengths"]),
        patterns=tuple(spec["patterns"]),
        buffer_depths=tuple(spec["buffer_depths"]),
    )


def _evaluator(op: dict) -> Any:
    """The family evaluator an operation names (flow propagation is cached)."""
    fam = families.design_family(op["family"])
    spec = None if op.get("pattern") is None else traffic_spec.make_spec(op["pattern"])
    if op.get("dead_links"):
        fault_spec = faults.FaultSpec(dead_links=tuple(op["dead_links"]))
        return fam.faulted_evaluator(op["params"], spec, op["message_flits"], fault_spec)
    return fam.evaluator(op["params"], spec, op["message_flits"])


def execute(op: dict) -> Any:
    """Run one operation; returns its raw result (checked later)."""
    kind = op["kind"]
    if kind == "run":
        return _RUNNER.run(runs.Scenario(**op["scenario"])).metrics
    if kind == "sweep":
        return sweep.latency_sweep(_evaluator(op), op["message_flits"], op["flit_loads"])
    if kind == "explore":
        # Each exploration starts cold, like a `repro design` process.
        design_evaluate.clear_metrics_cache()
        result = design.explore(_space(op["space"]), design.Requirements(**op["requirements"]))
        return result, result.pareto()
    if kind == "build":
        return _evaluator(op)
    raise ValueError(f"unknown operation kind {kind!r}")


def answer(op: dict, raw: Any) -> dict:
    """The checked part of an operation's raw result."""
    kind = op["kind"]
    if kind == "run":
        if op["scenario"].get("backend") == "simulate":
            return checks.sim_answer(raw)
        return checks.run_answer(raw)
    if kind == "sweep":
        return checks.sweep_answer(raw)
    if kind == "explore":
        return checks.explore_answer(*raw)
    raise ValueError(f"operation kind {kind!r} has no answer")


def work_units(op: dict, raw: Any) -> float:
    """What ``ops_per_s`` counts for one operation.

    Scenarios and sweeps count one each, explorations count their
    candidates, and simulations count simulated cycles times replications.
    """
    if op["kind"] == "explore":
        return float(len(raw[0].evaluations))
    scenario = op.get("scenario", {})
    if scenario.get("backend") == "simulate":
        cycles = scenario["warmup_cycles"] + scenario["measure_cycles"]
        return float(cycles * scenario["replications"])
    return 1.0
