"""Experiment TOPO — one question, every topology family, one facade.

The paper's abstract claims its Section-2 machinery applies to "other
networks"; after the facade gained topology parity, that claim is a
one-loop experiment: the *same* declarative :class:`~repro.runs.Scenario`
— only the ``topology`` field (and the family's shape parameters)
changing — is answered by the analytical model, crosschecked against the
prior-art baseline, and validated by the event-driven simulator for all
four families the repository models:

* ``bft`` — the paper's 4-2 butterfly fat-tree,
* ``generalized-fattree`` — the (children, parents) generalization,
* ``hypercube`` — the general model on a binary e-cube hypercube,
* ``kary-ncube`` — Dally's unidirectional torus (its own prior art).

Each family is measured at half its own model saturation — except the
torus, which runs at 10% of saturation because wormhole rings deadlock
without virtual channels (Dally & Seitz 1987) and our simulators model
none (see :mod:`repro.baselines.dally`); the operating fraction is
reported per row, never silently substituted.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..runs.runner import Runner
from ..runs.scenario import Scenario
from ..util.tables import format_table
from .common import ExperimentMode, mode, relative_error

__all__ = ["TopologyMatrixRow", "TopologyMatrixResult", "run_topology_matrix"]

#: The no-virtual-channel torus limitation keeps its crosscheck at low load.
_TORUS_LOAD_FRACTION = 0.1
_DEFAULT_LOAD_FRACTION = 0.5


def _family_scenarios(full: bool, message_flits: int) -> list[Scenario]:
    """One representative scenario per family (paper-scale when ``full``)."""
    if full:
        shapes = [
            dict(topology="bft", num_processors=256),
            dict(topology="generalized-fattree", num_processors=256,
                 children=4, parents=2),
            dict(topology="hypercube", num_processors=256),
            dict(topology="kary-ncube", num_processors=64, radix=4),
        ]
    else:
        shapes = [
            dict(topology="bft", num_processors=16),
            dict(topology="generalized-fattree", num_processors=8,
                 children=2, parents=2),
            dict(topology="hypercube", num_processors=16),
            dict(topology="kary-ncube", num_processors=9, radix=3),
        ]
    return [
        Scenario(message_flits=message_flits, sweep_points=0, **shape)
        for shape in shapes
    ]


@dataclass(frozen=True)
class TopologyMatrixRow:
    """One family's model / baseline / simulation crosscheck."""

    topology: str
    num_processors: int
    load_fraction: float
    flit_load: float
    saturation_flit_load: float
    model_latency: float
    baseline_latency: float
    sim_latency: float

    @property
    def model_err(self) -> float:
        return relative_error(self.model_latency, self.sim_latency)

    @property
    def baseline_err(self) -> float:
        return relative_error(self.baseline_latency, self.sim_latency)


@dataclass(frozen=True)
class TopologyMatrixResult:
    message_flits: int
    rows: tuple[TopologyMatrixRow, ...]
    mode_label: str

    def render(self) -> str:
        return format_table(
            [
                "topology",
                "N",
                "load frac",
                "load (fl/cyc/PE)",
                "sat load",
                "model",
                "baseline",
                "sim",
                "model err",
                "baseline err",
            ],
            [
                (
                    r.topology,
                    r.num_processors,
                    r.load_fraction,
                    r.flit_load,
                    r.saturation_flit_load,
                    r.model_latency,
                    r.baseline_latency,
                    r.sim_latency,
                    r.model_err,
                    r.baseline_err,
                )
                for r in self.rows
            ],
            title=(
                f"One Scenario per family through model/baseline/simulate, "
                f"{self.message_flits}-flit ({self.mode_label} mode; torus at "
                f"{_TORUS_LOAD_FRACTION:.0%} of saturation — no virtual channels)"
            ),
        )

    def to_json(self) -> dict:
        return {
            "message_flits": self.message_flits,
            "mode": self.mode_label,
            "rows": [
                {
                    "topology": r.topology,
                    "num_processors": r.num_processors,
                    "load_fraction": r.load_fraction,
                    "flit_load": r.flit_load,
                    "saturation_flit_load": r.saturation_flit_load,
                    "model_latency": r.model_latency,
                    "baseline_latency": r.baseline_latency,
                    "sim_latency": r.sim_latency,
                    "model_err": r.model_err,
                    "baseline_err": r.baseline_err,
                }
                for r in self.rows
            ],
        }


def run_topology_matrix(
    *,
    message_flits: int = 16,
    seed: int = 23,
    registry=None,
    experiment_mode: ExperimentMode | None = None,
) -> TopologyMatrixResult:
    """Run the cross-family comparison (optionally recording every run).

    ``registry`` (a :class:`~repro.runs.RunRegistry`) persists all twelve
    records — model, baseline and simulate per family — so the matrix
    diffs across PRs like any other run.
    """
    m = experiment_mode or mode()
    runner = Runner(registry=registry)
    rows = []
    for base in _family_scenarios(m.full, message_flits):
        # The saturation search anchors the operating point; reuse the
        # model record's saturation block rather than re-searching.
        probe = runner.run(base.with_backend("batch"), save=False)
        sat = probe.metrics["saturation"]["flit_load"]
        fraction = (
            _TORUS_LOAD_FRACTION
            if base.topology == "kary-ncube"
            else _DEFAULT_LOAD_FRACTION
        )
        scenario = dataclasses.replace(
            base,
            flit_load=fraction * sat,
            seed=seed,
            replications=m.replications,
            warmup_cycles=m.warmup_cycles,
            measure_cycles=m.measure_cycles,
            label="topology-matrix",
        )
        model = runner.run(scenario.with_backend("batch"))
        baseline = runner.run(scenario.with_backend("baseline"))
        simulated = runner.run(scenario.with_backend("simulate"))
        rows.append(
            TopologyMatrixRow(
                topology=scenario.topology,
                num_processors=scenario.num_processors,
                load_fraction=fraction,
                flit_load=scenario.flit_load,
                saturation_flit_load=sat,
                model_latency=model.metrics["point"]["latency"],
                baseline_latency=baseline.metrics["point"]["latency"],
                sim_latency=simulated.metrics["point"]["latency"],
            )
        )
    return TopologyMatrixResult(
        message_flits=message_flits, rows=tuple(rows), mode_label=m.label
    )
