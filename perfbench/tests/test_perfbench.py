"""The benchmark's own tests.

Fast tests need only the standard library and the committed reference
files; they check the seeded streams, the answer checks and the metric
names.  ``PERFBENCH_E2E=1`` also runs every workload end to end (slow),
checking that each prints every metric ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import catalog  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import serve_bench  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _cycles(workload: str, seed: int, count: int = 3) -> list:
    stream = catalog.Stream(catalog.load_reference(workload), seed)
    return [[stream.entry(item)["op"] for item in stream.cycle()] for _ in range(count)]


# --- seeded streams ---------------------------------------------------------------


@pytest.mark.parametrize("workload", catalog.IN_PROCESS)
def test_same_seed_same_operation_stream(workload):
    assert _cycles(workload, 7) == _cycles(workload, 7)
    assert _cycles(workload, 7) != _cycles(workload, 8)


@pytest.mark.parametrize("workload", catalog.IN_PROCESS)
def test_every_cycle_asks_the_same_operations(workload):
    reference = catalog.load_reference(workload)
    stream = catalog.Stream(reference, 3)
    cycles = [stream.cycle() for _ in range(3)]
    assert cycles[0] != cycles[1]
    assert all(sorted(c) == sorted(stream.items) for c in cycles)
    slots = sorted({slot for slot, _ in stream.items})
    assert slots == list(range(len(reference["slots"])))
    if reference.get("all_variants"):
        assert len(stream.items) == sum(len(s["variants"]) for s in reference["slots"])
    else:
        assert len(stream.items) == len(reference["slots"])


def test_serve_stream_is_seeded_and_mixes_one_miss_in_five():
    reference = catalog.load_reference("serve")
    first = [r for _, r in zip(range(2000), catalog.serve_requests(reference, 5))]
    again = [r for _, r in zip(range(2000), catalog.serve_requests(reference, 5))]
    other = [r for _, r in zip(range(2000), catalog.serve_requests(reference, 6))]
    assert first == again and first != other
    for block in range(0, len(first), catalog.SERVE_BLOCK):
        kinds = [kind for kind, _, _ in first[block:block + catalog.SERVE_BLOCK]]
        assert kinds.count("miss") == 1
    template, fresh = catalog.serve_split(reference)
    assert len(template) == 10_000 and not set(template) & set(fresh)
    misses = [(g, i) for kind, g, i in first if kind == "miss"]
    assert len(set(misses)) == len(misses) and set(misses) <= set(fresh)
    assert {(g, i) for kind, g, i in first if kind == "hit"} <= set(template)


# --- answer checks ----------------------------------------------------------------


def _first_expect(workload: str, kind: str) -> dict:
    for slot in catalog.load_reference(workload)["slots"]:
        entry = slot["variants"][0]
        if entry["op"]["kind"] == kind:
            return entry["expect"]
    raise AssertionError(f"no {kind} operation in {workload}")


def test_analytical_answers_match_within_tolerance_only():
    expect = _first_expect("closed_form", "run")
    assert checks.compare(expect, copy.deepcopy(expect)) == []
    close = copy.deepcopy(expect)
    close["latency"] *= 1 + 1e-12
    assert checks.compare(expect, close) == []
    off = copy.deepcopy(expect)
    off["latency"] *= 1 + 1e-6
    assert checks.compare(expect, off)
    off = copy.deepcopy(expect)
    off["saturation"][1] *= 1 + 1e-6
    assert checks.compare(expect, off)


def test_curves_and_explorations_are_checked():
    expect = _first_expect("stage_graph", "sweep")
    off = copy.deepcopy(expect)
    off["curve_latencies"][-1] *= 1 + 1e-6
    assert checks.compare(expect, off)
    off["curve_latencies"].pop()
    assert checks.compare(expect, off)
    expect = _first_expect("explore", "explore")
    off = copy.deepcopy(expect)
    off["candidates"][0][5] = not off["candidates"][0][5]
    assert checks.compare(expect, off)
    off = copy.deepcopy(expect)
    off["pareto"] = off["pareto"][1:]
    assert checks.compare(expect, off)


def test_simulated_answers_must_match_exactly():
    expect = _first_expect("simulate", "run")
    assert checks.compare(expect, copy.deepcopy(expect)) == []
    off = copy.deepcopy(expect)
    off["exact"]["replications"][0][1] *= 1 + 1e-15
    if off["exact"]["replications"][0][1] == expect["exact"]["replications"][0][1]:
        off["exact"]["replications"][0][1] += 1e-12
    assert checks.compare(expect, off)
    off = copy.deepcopy(expect)
    off["exact"]["replications"][0][3] += 1
    assert checks.compare(expect, off)


def _served_body(reference: dict, group: int, index: int, latency_scale: float = 1.0) -> bytes:
    g = reference["groups"][group]
    injection_rate, flit_load, lower, upper = g["saturation"]
    metrics = {
        "point": {"flit_load": g["loads"][index], "latency": g["latencies"][index] * latency_scale},
        "saturation": {"injection_rate": injection_rate, "flit_load": flit_load,
                       "lower_bound": lower, "upper_bound": upper},
        "curve": None,
    }
    return json.dumps({"metrics": metrics}).encode()


def test_served_answers_are_checked():
    reference = catalog.load_reference("serve")
    g, i = catalog.serve_split(reference)[0][0]
    body = _served_body(reference, g, i)
    digest = checks.metrics_digest(json.loads(body)["metrics"])
    client = serve_bench.Client(reference, {f"{g}:{i}": digest})
    assert not client.failed("hit", g, i, 200, "hit", body)
    assert client.failed("hit", g, i, 200, "miss", body)
    assert client.failed("hit", g, i, 500, "hit", body)
    assert client.failed("miss", g, i, 200, "miss", _served_body(reference, g, i, 1 + 1e-6))
    # A hit must be byte-identical to the stored record, not merely close.
    client.digests[f"{g}:{i}"] = "0" * 64
    assert client.failed("hit", g, i, 200, "hit", body)
    assert len(client.mismatches) == 4


def test_worker_counts_a_perturbed_answer_as_failed():
    pytest.importorskip("repro")
    import worker

    reference = catalog.load_reference("closed_form")
    stream = catalog.Stream(reference, 1)
    records = []
    for item in stream.items[:3]:
        expect = stream.entry(item)["expect"]
        record = {"point": {"latency": expect["latency"]}, "saturation": dict(zip(
            ("injection_rate", "flit_load", "lower_bound", "upper_bound"), expect["saturation"]))}
        record["curve"] = None if "curve_loads" not in expect else {
            "flit_loads": expect["curve_loads"], "latencies": expect["curve_latencies"]}
        records.append((item, record))
    results = [(item, checks.run_answer(r), None, 1.0) for item, r in records]
    mismatches: list[str] = []
    assert worker.check(stream, results, mismatches) == (0, 3.0)
    records[1][1]["point"]["latency"] *= 1 + 1e-6
    results = [(item, checks.run_answer(r), None, 1.0) for item, r in records]
    results.append((stream.items[0], None, "ValueError: boom", 0.0))
    assert worker.check(stream, results, mismatches) == (2, 2.0)
    assert len(mismatches) == 2


# --- metrics ----------------------------------------------------------------------


def test_end_to_end_metrics_are_the_declared_ones():
    raw = {"setup_s": [1.0, 2.0, 3.0], "samples_s": [0.001 * k for k in range(1, 201)],
           "busy_s": 2.0, "work": 200.0, "peak_rss_mb": 100.0}
    values = measure.end_to_end(raw)
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert values["setup_s"] == 2.0 and values["ops_per_s"] == 100.0
    assert all(v > 0 for v in values.values())


def test_per_layer_metrics_are_the_declared_ones():
    empty_tracer = {"totals": {}, "core_outside_run": 0, "missing": []}
    produced = set(layers.layer_metrics(ops=1, tracer=empty_tracer, telemetry={}, records=[]))
    produced |= set(serve_bench.serve_layer_metrics({}, {}, [], empty_tracer))
    produced |= set(serve_bench.split_latencies([], []))
    produced |= set(measure.parse_importtime(""))
    produced |= {"obs.tracing_overhead_ratio", "simulation.model_sim_rel_err"}
    assert produced == {m["name"] for m in SPEC["per_layer"]}


def test_self_time_excludes_enclosed_spans():
    tracer = layers.Tracer()

    def inner() -> None:
        time.sleep(0.02)

    wrapped_inner = tracer.wrap("core.inner", inner)

    def outer() -> None:
        time.sleep(0.02)
        wrapped_inner()

    tracer.wrap("runs.outer", outer)()
    calls, inclusive, self_s = tracer.totals["runs.outer"]
    assert calls == 1 and inclusive >= 0.04
    assert 0.02 <= self_s < inclusive - 0.015
    assert tracer.totals["core.inner"][2] >= 0.02
    assert tracer.core_outside_run == 1


def test_percentile_averages_a_window_of_order_statistics():
    values = [float(v) for v in range(101)]
    assert measure.percentile(values, 0.5) == 50.0
    assert measure.percentile(values, 0.9) == 90.0
    assert measure.percentile([1.0] * 50 + [3.0] * 50, 0.5) == 2.0
    assert measure.percentile([], 0.9) == 0.0


def test_importtime_attribution():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:        50 |        150 | numpy",
        "import time:       700 |        700 |   scipy.stats",
        "import time:        20 |       1000 | repro",
    ])
    assert measure.parse_importtime(stderr) == {
        "import.repro_ms": 1.0, "import.scipy_ms": 0.7,
        "import.networkx_ms": 0.0, "import.numpy_ms": 0.15,
    }


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} == set(catalog.WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".state"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed_form", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# --- end to end (slow) ------------------------------------------------------------


@pytest.mark.skipif(os.environ.get("PERFBENCH_E2E") != "1", reason="set PERFBENCH_E2E=1")
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_run_prints_every_declared_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
