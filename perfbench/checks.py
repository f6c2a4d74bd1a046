"""Answer extraction and comparison against the committed reference.

An *answer* is the part of a result the benchmark checks, as plain JSON:
analytical numbers (latencies, saturation bounds, curves, costs) must
match the reference to a relative tolerance of :data:`REL_TOL`; simulated
statistics must match exactly, because a simulation is reproducible for
its seed.  Strings and booleans always match exactly.

Standard library only; the extractors take the program's results by duck
typing (``RunResult.metrics`` dicts, curves, exploration results).
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

#: Relative tolerance of analytical answers.
REL_TOL = 1e-9

#: Significant digits kept for analytical values in the reference files
#: (enough for REL_TOL, and the files stay small).
REFERENCE_DIGITS = 12


def rounded(value: Any) -> Any:
    """Analytical reference values, rounded to :data:`REFERENCE_DIGITS`."""
    if isinstance(value, float):
        return float(f"{value:.{REFERENCE_DIGITS}g}") if math.isfinite(value) else value
    if isinstance(value, list):
        return [rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: rounded(v) for k, v in value.items()}
    return value


# --- extraction --------------------------------------------------------------------


def _number(value: Any) -> Any:
    """Serve records encode non-finite floats as strings; map them back."""
    if isinstance(value, str) and value in ("inf", "-inf", "nan"):
        return float(value)
    return value


def run_answer(metrics: dict) -> dict:
    """Analytical answer of one ``Runner.run`` record (or served record)."""
    out: dict[str, Any] = {"latency": _number(metrics["point"]["latency"])}
    sat = metrics.get("saturation")
    if sat is not None:
        out["saturation"] = [
            _number(sat[k])
            for k in ("injection_rate", "flit_load", "lower_bound", "upper_bound")
        ]
    curve = metrics.get("curve")
    if curve is not None:
        out["curve_loads"] = [_number(x) for x in curve["flit_loads"]]
        out["curve_latencies"] = [_number(x) for x in curve["latencies"]]
    return out


def sim_answer(metrics: dict) -> dict:
    """Simulated answer: per-replication statistics plus the model prediction."""
    point = metrics["point"]
    return {
        "model_prediction": point["model_prediction"],
        "exact": {
            "latency": point["latency"],
            "throughput": point["throughput"],
            "replications": [
                [r["seed"], r["latency_mean"], r["throughput"],
                 r["tagged_delivered"], r["censored_tagged"]]
                for r in metrics["replications"]
            ],
        },
    }


def sweep_answer(curve: Any) -> dict:
    return {"curve_latencies": [float(x) for x in curve.latencies]}


def explore_answer(result: Any, frontier: Any) -> dict:
    """The evaluation table, skips, cheapest design and Pareto frontier."""
    return {
        "candidates": [
            [
                e.candidate.label(),
                float(e.latency),
                float(e.saturation_flit_load),
                float(e.metrics.zero_load_latency),
                float(e.cost.total),
                bool(e.feasible),
            ]
            for e in result.evaluations
        ],
        "skipped": len(result.skipped),
        "cheapest": (
            None if result.cheapest_feasible is None
            else result.cheapest_feasible.candidate.label()
        ),
        "pareto": sorted(e.candidate.label() for e in frontier),
    }


def metrics_digest(metrics: dict) -> str:
    """Digest of a record's full metrics block (byte-identity of hits)."""
    canonical = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --- comparison --------------------------------------------------------------------


def _close(expected: float, got: float) -> bool:
    if math.isnan(expected):
        return math.isnan(got)
    if math.isinf(expected) or math.isinf(got):
        return expected == got
    return math.isclose(got, expected, rel_tol=REL_TOL, abs_tol=0.0)


def compare(expected: Any, got: Any, path: str = "") -> list[str]:
    """Mismatches between an answer and its reference (empty = correct).

    Numbers compare to :data:`REL_TOL`, except below an ``exact`` key,
    where everything must be equal.
    """
    exact = path.endswith("exact") or "/exact/" in path
    if isinstance(expected, dict):
        if not isinstance(got, dict) or set(got) != set(expected):
            return [f"{path or '/'}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                    f" != {sorted(expected)}"]
        out: list[str] = []
        for key in expected:
            out += compare(expected[key], got[key], f"{path}/{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(got, list) or len(got) != len(expected):
            return [f"{path}: length {len(got) if isinstance(got, list) else got!r}"
                    f" != {len(expected)}"]
        out = []
        for i, (e, g) in enumerate(zip(expected, got)):
            out += compare(e, g, f"{path}/{i}")
        return out
    if isinstance(expected, bool) or not isinstance(expected, (int, float)):
        return [] if got == expected else [f"{path}: {got!r} != {expected!r}"]
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return [f"{path}: {got!r} is not a number"]
    if exact:
        return [] if got == expected else [f"{path}: {got!r} != {expected!r} (exact)"]
    ok = _close(float(expected), float(got))
    return [] if ok else [f"{path}: {got!r} != {expected!r} (rel tol {REL_TOL})"]
