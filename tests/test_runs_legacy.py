"""Registries written before the ``model`` backend became an alias of ``batch``.

Older releases recorded ``scenario.backend == "model"`` and
``metrics.engine == "scalar"``.  Such a record must still load, be found
by ``runs list --backend model`` *and* ``--backend batch`` (through the
JSONL scan and through the SQLite index), and diff against a fresh
``batch`` record of the same question.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.runs import RunRegistry, Runner, Scenario

#: A ``model``-backend record as older releases wrote it, by hand.
LEGACY_RECORD = {
    "schema_version": 1,
    "run_id": "run-legacy0model",
    "kind": "scenario",
    "label": "legacy",
    "created_at": 1700000000.0,
    "scenario": {
        "topology": "bft",
        "num_processors": 16,
        "children": None,
        "parents": None,
        "levels": None,
        "dimension": None,
        "radix": None,
        "message_flits": 16,
        "flit_load": 0.04,
        "pattern": "uniform",
        "pattern_params": {},
        "backend": "model",
        "sweep_points": 2,
        "sweep_fraction": 0.98,
        "flit_loads": None,
        "simulator": "event",
        "replications": 3,
        "warmup_cycles": 3000.0,
        "measure_cycles": 9000.0,
        "seed": 1,
        "label": "legacy",
        "faults": None,
    },
    "metrics": {
        "engine": "scalar",
        "variant": "paper",
        "family": {"name": "bft", "params": {"processors": 16}},
        "faults": None,
        "point": {"flit_load": 0.04, "latency": 19.5},
        "saturation": {
            "injection_rate": 0.02026,
            "flit_load": 0.32416,
            "lower_bound": 0.02026,
            "upper_bound": 0.020261,
        },
        "curve": {
            "label": "model 16-flit",
            "flit_loads": [0.0065, 0.3177],
            "latencies": [18.7, 174.8],
            "last_stable_load": 0.3177,
        },
    },
    "provenance": {
        "repro_version": "2.0.0",
        "backend": "model",
        "python": "3.11.7",
        "platform": "linux",
        "scenario_key": "sk1-" + "0" * 64,
    },
    "timings": {"build_s": 0.001, "saturation_s": 0.002, "evaluate_s": 0.003,
                "total_s": 0.006},
}


@pytest.fixture
def legacy_registry(tmp_path):
    registry = RunRegistry(tmp_path / "registry")
    registry.path.mkdir(parents=True)
    registry.records_path.write_text(json.dumps(LEGACY_RECORD) + "\n")
    return registry


def _list(capsys, registry, *flags):
    rc = main(
        ["runs", "list", "--registry", str(registry.path), "--json", *flags]
    )
    assert rc == 0
    return [r["run_id"] for r in json.loads(capsys.readouterr().out)["runs"]]


def test_legacy_record_loads(legacy_registry):
    record = legacy_registry.load("run-legacy0model")
    assert record.scenario.backend == "batch"
    assert record.metrics["engine"] == "scalar"  # recorded history is kept


@pytest.mark.parametrize("indexed", [False, True], ids=["scan", "index"])
@pytest.mark.parametrize("backend", ["model", "batch"])
def test_runs_list_finds_it_under_either_name(
    capsys, legacy_registry, backend, indexed
):
    flags = ["--backend", backend] + (["--indexed"] if indexed else [])
    assert _list(capsys, legacy_registry, *flags) == ["run-legacy0model"]


def test_runs_list_simulate_does_not(capsys, legacy_registry):
    assert _list(capsys, legacy_registry, "--backend", "simulate") == []
    assert _list(capsys, legacy_registry, "--backend", "simulate", "--indexed") == []


def test_diff_against_fresh_batch_record_renders(capsys, legacy_registry):
    scenario = Scenario.from_json(LEGACY_RECORD["scenario"])
    fresh = Runner(registry=legacy_registry).run(scenario.with_backend("batch"))
    assert fresh.scenario == scenario
    rc = main(
        [
            "runs",
            "diff",
            "run-legacy0model",
            fresh.run_id,
            "--registry",
            str(legacy_registry.path),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "point.latency" in out
