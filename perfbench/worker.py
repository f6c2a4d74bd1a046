"""One in-process workload run (started by ``run.py``, one per process).

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE [TRACE_FILE]

MODE is ``setup`` (import, warm up, print ``READY`` and exit), ``measure``
(then run the timed stream) or ``trace`` (then run the same operations a
second time with the layer wrappers installed).  ``READY`` marks the end
of set-up: ``import repro`` plus one untimed pass over the workload's
distinct shapes, so per-process caches are filled.  The last stdout line
is the run's raw result as JSON.

Only the operations are timed.  Each result is reduced to its answer as
soon as it is timed, and the answers are checked against the reference
after the window closes.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path
from typing import Any

import catalog
import checks
from calibrate import Calibration

MAX_REPORTED_MISMATCHES = 5


def run_cycles(stream: catalog.Stream, seconds: float, orders: list[list] | None = None,
               tracer: Any = None, records: list[dict] | None = None) -> dict:
    """Run whole cycles until ``seconds`` and :data:`catalog.MIN_SAMPLES` are
    reached, or replay the cycle ``orders`` of an earlier pass.

    ``samples`` are the operations' times scaled to the reference machine
    speed (see :mod:`calibrate`); ``raw_samples`` their wall times.  Each
    result is reduced to its answer as soon as it is timed, so the heap
    the collector scans does not grow with the run; the run records'
    metrics are kept only when ``records`` is given.
    """
    import ops

    calibration = Calibration()
    calibration.tick(force=True)
    done: list[list] = []
    raw: list[float] = []
    kernel_index: list[int] = []
    results: list[tuple[tuple[int, int], Any, str | None, float]] = []
    started = time.perf_counter()
    while True:
        order = orders[len(done)] if orders is not None else stream.cycle()
        for item in order:
            op = stream.entry(item)["op"]
            kernel_index.append(calibration.tick())
            if tracer is not None:
                tracer.op = len(raw)
            t0 = time.perf_counter()
            try:
                result, error = ops.execute(op), None
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            raw.append(time.perf_counter() - t0)
            if error is None:
                results.append((item, ops.answer(op, result), None, ops.work_units(op, result)))
                if records is not None and isinstance(result, dict):
                    records.append(result)
            else:
                results.append((item, None, error, 0.0))
        done.append(order)
        if orders is not None:
            if len(done) == len(orders):
                break
        elif time.perf_counter() - started >= seconds and len(raw) >= catalog.MIN_SAMPLES:
            break
    calibration.tick(force=True)
    samples = calibration.normalize(raw, kernel_index)
    per_cycle = len(stream.items)
    return {
        "orders": done,
        "samples": samples,
        "raw_samples": raw,
        "cycle_s": [sum(samples[i:i + per_cycle]) for i in range(0, len(samples), per_cycle)],
        "kernel_median_s": calibration.median_s(),
        "results": results,
    }


def check(stream: catalog.Stream, results: list, mismatches: list[str]) -> tuple[int, float]:
    """Check every answer; returns (failed operations, work units done)."""
    failed, work = 0, 0.0
    for item, answer, error, units in results:
        problems = [error] if error else checks.compare(stream.entry(item)["expect"], answer)
        if problems:
            failed += 1
            if len(mismatches) < MAX_REPORTED_MISMATCHES:
                mismatches.append(f"{stream.slots[item[0]]['id']}: {problems[0]}")
        else:
            work += units
    return failed, work


def model_sim_rel_err(results: list) -> float:
    """Mean |simulated - model| / model over the given simulate answers."""
    errors = [
        abs(answer["exact"]["latency"] - answer["model_prediction"]) / answer["model_prediction"]
        for _, answer, _, _ in results
        if answer is not None and answer.get("model_prediction")
    ]
    return sum(errors) / len(errors) if errors else 0.0


def traced_pass(stream: catalog.Stream, orders: list[list],
                trace_file: Path) -> tuple[dict, dict, list[str]]:
    """Replay ``orders`` with the layer wrappers installed."""
    import layers
    from repro.obs import METRICS

    tracer = layers.Tracer()
    tracer.install()
    cache_before = layers.flow_cache_info()
    records: list[dict] = []
    try:
        with METRICS.collect() as telemetry:
            traced = run_cycles(stream, 0.0, orders=orders, tracer=tracer, records=records)
    finally:
        tracer.uninstall()
    cache_after = layers.flow_cache_info()
    tracer.write(trace_file)
    per_layer = layers.layer_metrics(
        ops=len(traced["samples"]),
        tracer=tracer.summary(),
        telemetry=telemetry.data,
        records=records,
        flow_cache=(cache_after[0] - cache_before[0], cache_after[1] - cache_before[1]),
    )
    return traced, per_layer, tracer.missing


def main(argv: list[str]) -> int:
    workload, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    reference = catalog.load_reference(workload)
    import ops

    for op in reference["warm"]:
        ops.execute(op)
    print("READY", flush=True)
    if mode == "setup":
        return 0

    stream = catalog.Stream(reference, seed)
    run = run_cycles(stream, seconds)
    mismatches: list[str] = []
    failed, work = check(stream, run["results"], mismatches)
    out: dict[str, Any] = {
        "samples_s": run["samples"],
        "raw_samples_s": run["raw_samples"],
        "busy_s": sum(run["samples"]),
        "cycle_s": run["cycle_s"],
        "kernel_median_s": run["kernel_median_s"],
        "work": work,
        "attempted": len(run["samples"]),
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if mode == "trace":
        traced, per_layer, out["missing_targets"] = traced_pass(stream, run["orders"], Path(argv[4]))
        traced_failed, _ = check(stream, traced["results"], mismatches)
        out["attempted"] += len(traced["samples"])
        out["failed"] += traced_failed
        per_layer["obs.tracing_overhead_ratio"] = sum(traced["samples"]) / sum(run["samples"])
        # Every cycle asks the same operations, so this repeats exactly per seed.
        first_cycle = run["results"][: len(stream.items)]
        per_layer["simulation.model_sim_rel_err"] = model_sim_rel_err(first_cycle)
        out["per_layer"] = per_layer
    out["mismatches"] = mismatches
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
