"""Generate the committed catalogs and reference answers (``reference/*.json``).

Run from the repository root, once per change to the catalogs:

    PYTHONPATH=src python3 perfbench/make_reference.py [workload ...]

Each catalog entry is answered through the same public entry points the
benchmark measures, and the answer is stored next to the operation.  The
benchmark then checks every answer of every run against these files, so
they pin the program's numbers as of the commit that generated them.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import catalog
import checks
import ops

FLITS = (16, 32, 64)


def _sig(x: float, digits: int) -> float:
    return float(f"{x:.{digits}g}")


def _run(scenario: dict) -> dict:
    return ops.execute({"kind": "run", "scenario": scenario})


def _saturation(scenario: dict) -> float:
    """The scenario's Eq. 26 saturation load (flits/cycle/PE)."""
    return _run({**scenario, "sweep_points": 0})["saturation"]["flit_load"]


def _entry(op: dict) -> dict:
    raw = ops.execute(op)
    expect = ops.answer(op, raw)
    if "exact" not in expect:
        expect = checks.rounded(expect)
    else:
        expect = {**expect, "model_prediction": checks.rounded(expect["model_prediction"])}
    return {"op": op, "expect": expect}


def _timed_slot(name: str, variants: list[dict]) -> dict:
    started = time.perf_counter()
    out = [_entry(op) for op in variants]
    ms = 1e3 * (time.perf_counter() - started) / len(variants)
    print(f"  {name:60s} {ms:9.1f} ms/op", file=sys.stderr, flush=True)
    return {"id": name, "variants": out}


# --- closed_form ---------------------------------------------------------------------

CLOSED_FORM_SHAPES = (
    [{"topology": "bft", "num_processors": n} for n in (16, 64, 256, 1024, 4096)]
    + [
        {"topology": "generalized-fattree", "num_processors": n, "children": 4, "parents": 2}
        for n in (16, 64, 256, 1024)
    ]
    + [
        {"topology": "generalized-fattree", "num_processors": n, "children": 4, "parents": 3}
        for n in (16, 64, 256)
    ]
    + [{"topology": "kary-ncube", "num_processors": n, "radix": 4} for n in (16, 64, 256)]
    + [{"topology": "kary-ncube", "num_processors": 64, "radix": 8}]
)
BACKENDS = ("batch", "model", "baseline")
SWEEP_POINTS = (0, 8, 32)
CLOSED_FORM_FRACTIONS = (0.2, 0.45, 0.7)


def closed_form() -> dict:
    """Uniform traffic through the closed forms: 9 slots per shape.

    Each shape is asked once per (backend, sweep_points) pair, with the
    message length rotating so every pair sees every length; variants are
    operating points at fixed fractions of the lower of the model's and
    the baseline's saturation load.
    """
    slots, warm = [], []
    for shape in CLOSED_FORM_SHAPES:
        sat = {
            f: min(_saturation({**shape, "message_flits": f, "backend": b})
                   for b in ("batch", "baseline"))
            for f in FLITS
        }
        for bi, backend in enumerate(BACKENDS):
            for si, points in enumerate(SWEEP_POINTS):
                flits = FLITS[(bi + si) % len(FLITS)]
                base = {**shape, "message_flits": flits, "backend": backend,
                        "sweep_points": points}
                variants = [
                    {"kind": "run",
                     "scenario": {**base, "flit_load": _sig(frac * sat[flits], 6)}}
                    for frac in CLOSED_FORM_FRACTIONS
                ]
                name = "-".join(str(v) for v in shape.values()) + f"-{backend}-p{points}-f{flits}"
                slots.append(_timed_slot(name, variants))
        warm.append(slots[-1]["variants"][0]["op"])
    return {"workload": "closed_form", "slots": slots, "warm": warm}


# --- stage_graph ---------------------------------------------------------------------

STAGE_GRAPH_FRACTIONS = (0.2, 0.4, 0.6)
TORUS_GRID = [0.002, 0.004, 0.006, 0.008, 0.010, 0.012, 0.014, 0.016]


def _family_params(scenario: dict) -> tuple[str, dict]:
    topology, n = scenario["topology"], scenario["num_processors"]
    if topology == "bft":
        return topology, {"processors": n}
    if topology == "hypercube":
        return topology, {"dimension": n.bit_length() - 1}
    if topology == "generalized-fattree":
        levels = round(math.log(n, scenario.get("children", 4)))
        return topology, {"children": scenario.get("children", 4),
                          "parents": scenario.get("parents", 2), "levels": levels}
    radix = scenario["radix"]
    return topology, {"radix": radix, "dimensions": round(math.log(n, radix))}


def stage_graph() -> dict:
    """Scenarios whose evaluator is a ChannelGraphModel, plus faulted tori.

    Uniform hypercubes (cheap), pattern-aware BFT and hypercube graphs at
    N=64, acyclic dead-link faults on three families, and latency sweeps
    over a fixed grid on fault-masked 9- and 16-PE tori, whose stage
    graphs are cyclic and need the fixed point.
    """
    scenarios = [
        {"topology": "hypercube", "num_processors": n, "message_flits": f}
        for n in (64, 128, 256, 512, 1024) for f in FLITS
    ]
    scenarios += [
        {"topology": "bft", "num_processors": 64, "message_flits": 16, "pattern": p}
        for p in ("hotspot", "transpose", "bit-reversal")
    ]
    scenarios += [
        {"topology": "hypercube", "num_processors": 64, "message_flits": 16, "pattern": p}
        for p in ("transpose", "bit-reversal")
    ]
    scenarios += [
        {"topology": "hypercube", "num_processors": 16, "message_flits": 16,
         "pattern": "hotspot"},
        {"topology": "bft", "num_processors": 64, "message_flits": 16,
         "faults": {"dead_links": ["up:0:1"]}},
        {"topology": "generalized-fattree", "num_processors": 64, "message_flits": 16,
         "faults": {"dead_links": ["up:0:1"]}},
        {"topology": "hypercube", "num_processors": 16, "message_flits": 16,
         "faults": {"dead_links": ["up:0:1"]}},
    ]
    slots, warm = [], []
    for sc in scenarios:
        sc = {**sc, "backend": "batch", "sweep_points": 8}
        sat = _saturation(sc)
        variants = [
            {"kind": "run", "scenario": {**sc, "flit_load": _sig(frac * sat, 6)}}
            for frac in STAGE_GRAPH_FRACTIONS
        ]
        name = "-".join(str(sc.get(k, "")) for k in ("topology", "num_processors", "pattern"))
        name += f"-f{sc['message_flits']}" + ("-faulted" if "faults" in sc else "")
        slots.append(_timed_slot(name, variants))
        family, params = _family_params(sc)
        if "pattern" in sc or "faults" in sc:
            warm.append({"kind": "build", "family": family, "params": params,
                         "pattern": sc.get("pattern"), "message_flits": 16,
                         "dead_links": sc.get("faults", {}).get("dead_links")})
    for radix, dims in ((3, 2), (4, 2)):
        # One variant: the sweep is over a fixed grid, like a CLI sweep.
        variants = [
            {"kind": "sweep", "family": "kary-ncube",
             "params": {"radix": radix, "dimensions": dims}, "pattern": None,
             "message_flits": 16, "dead_links": ["up:0:1"], "flit_loads": TORUS_GRID}
        ]
        slot = _timed_slot(f"torus-{radix ** dims}-faulted-sweep", variants)
        for v in slot["variants"]:
            if not all(math.isfinite(x) for x in v["expect"]["curve_latencies"]):
                raise SystemExit(f"{slot['id']}: torus grid reaches saturation")
        slots.append(slot)
        warm.append({**variants[0], "kind": "build"})
    warm.append(slots[0]["variants"][0]["op"])
    return {"workload": "stage_graph", "slots": slots, "warm": warm}


# --- explore -------------------------------------------------------------------------

def _fam(family: str, **params) -> dict:
    return {"family": family, "params": {k: list(v) for k, v in params.items()}}


EXPLORE_SPACES = {
    "bft16-patterns": {
        "families": [_fam("bft", processors=(16,))],
        "message_lengths": [16, 32], "patterns": ["uniform", "hotspot", "transpose"],
        "buffer_depths": [1, 2],
    },
    "hypercube16-patterns": {
        "families": [_fam("hypercube", dimension=(4,))],
        "message_lengths": [16], "patterns": ["uniform", "hotspot", "transpose"],
        "buffer_depths": [1, 2],
    },
    "all-families-uniform": {
        "families": [
            _fam("bft", processors=(16, 64, 256)),
            _fam("hypercube", dimension=(4, 6, 8)),
            _fam("generalized-fattree", children=(4,), parents=(2, 3), levels=(2, 3)),
            _fam("kary-ncube", radix=(4,), dimensions=(2, 3)),
        ],
        "message_lengths": [16, 32], "patterns": ["uniform"], "buffer_depths": [1, 2],
    },
    "fattree-kary-patterns": {
        "families": [
            _fam("generalized-fattree", children=(4,), parents=(2, 3), levels=(2, 3)),
            _fam("kary-ncube", radix=(4,), dimensions=(2, 3)),
        ],
        "message_lengths": [16, 32, 64], "patterns": ["uniform", "hotspot", "transpose"],
        "buffer_depths": [1],
    },
    "bft-sizes-uniform": {
        "families": [_fam("bft", processors=(16, 64, 256, 1024, 4096))],
        "message_lengths": [16, 32, 64], "patterns": ["uniform"], "buffer_depths": [1, 2, 4],
    },
    "kary-uniform": {
        "families": [_fam("kary-ncube", radix=(4, 8), dimensions=(2, 3))],
        "message_lengths": [16, 32, 64], "patterns": ["uniform"], "buffer_depths": [1, 2],
    },
    "hypercube-sizes-uniform": {
        "families": [_fam("hypercube", dimension=(4, 5, 6, 7, 8))],
        "message_lengths": [16, 32], "patterns": ["uniform"], "buffer_depths": [1],
    },
    "fattree-sizes-uniform": {
        "families": [_fam("generalized-fattree", children=(4,), parents=(2, 3), levels=(2, 3, 4))],
        "message_lengths": [16, 32, 64], "patterns": ["uniform"], "buffer_depths": [1, 2],
    },
    "bft16-transpose-lengths": {
        "families": [_fam("bft", processors=(16,))],
        "message_lengths": [16, 32, 64], "patterns": ["transpose"], "buffer_depths": [1],
    },
    "hypercube16-hotspot-buffers": {
        "families": [_fam("hypercube", dimension=(4,))],
        "message_lengths": [32], "patterns": ["hotspot"], "buffer_depths": [1, 2, 4],
    },
    "all-families-small-patterns": {
        "families": [
            _fam("bft", processors=(16,)),
            _fam("hypercube", dimension=(4,)),
            _fam("generalized-fattree", children=(4,), parents=(2,), levels=(2,)),
            _fam("kary-ncube", radix=(4,), dimensions=(2,)),
        ],
        "message_lengths": [16], "patterns": ["uniform", "hotspot", "transpose"],
        "buffer_depths": [1],
    },
    "bft-large-uniform": {
        "families": [_fam("bft", processors=(1024, 4096))],
        "message_lengths": [16, 32, 64], "patterns": ["uniform"], "buffer_depths": [1, 2],
    },
}
EXPLORE_DEMANDS = (0.005, 0.01, 0.02)


def explore() -> dict:
    """Twelve small explorations, each started cold; the demand point is the
    variant.  Their costs spread from 2 to 150 ms, so the latency
    percentiles do not sit on a jump between two groups of equal cost."""
    slots, warm = [], []
    for name, space in EXPLORE_SPACES.items():
        variants = [
            {"kind": "explore", "space": space,
             "requirements": {"demand_flit_load": d, "latency_slo": 60.0,
                              "min_headroom": 1.5}}
            for d in EXPLORE_DEMANDS
        ]
        slots.append(_timed_slot(name, variants))
        warm.append(variants[0])
    # The demand changes an exploration's cost, so every cycle asks all three.
    return {"workload": "explore", "all_variants": True, "slots": slots, "warm": warm}


# --- simulate ------------------------------------------------------------------------

SIM_SHAPES = (
    ({"topology": "bft", "num_processors": 16}, (0.03, 0.06)),
    ({"topology": "bft", "num_processors": 64}, (0.03, 0.05)),
    ({"topology": "hypercube", "num_processors": 16}, (0.03, 0.06)),
    ({"topology": "kary-ncube", "num_processors": 16, "radix": 4}, (0.01, 0.015)),
)
SIM_SEEDS = (1, 2, 3)


def simulate() -> dict:
    """Serial simulate-backend runs; the variant is the simulation seed.

    The buffered simulator skips the 64-PE fat-tree, whose runs take
    ten times as long as any other slot.
    """
    slots, warm = [], []
    for simulator in ("event", "flit", "buffered"):
        for shape, loads in SIM_SHAPES:
            if simulator == "buffered" and shape["num_processors"] == 64:
                continue
            for load in loads:
                base = {**shape, "message_flits": 16, "flit_load": load,
                        "backend": "simulate", "simulator": simulator,
                        "replications": 2, "warmup_cycles": 1000.0,
                        "measure_cycles": 3000.0}
                variants = [{"kind": "run", "scenario": {**base, "seed": s}}
                            for s in SIM_SEEDS]
                name = f"{simulator}-{shape['topology']}-{shape['num_processors']}-{load}"
                slots.append(_timed_slot(name, variants))
        warm.append(slots[-1]["variants"][0]["op"])
    # The simulation seed changes a run's cost, so every cycle runs all three.
    return {"workload": "simulate", "all_variants": True, "slots": slots, "warm": warm}


# --- serve ---------------------------------------------------------------------------

SERVE_SHAPES = (
    [{"topology": "bft", "num_processors": n} for n in (16, 64, 256, 1024)]
    + [{"topology": "generalized-fattree", "num_processors": n, "children": 4, "parents": 2}
       for n in (64, 256)]
    + [{"topology": "kary-ncube", "num_processors": n, "radix": 4} for n in (16, 64)]
)
SERVE_LOADS_PER_GROUP = 1000
SERVE_TEMPLATE_PER_GROUP = 625


def serve() -> dict:
    """Closed-form scenarios for the service: 16 groups x 1000 operating points.

    625 points per group (10,000 in all) seed the template registry; the
    other 375 per group are the fresh scenarios that miss the cache.
    """
    groups = []
    for shape in SERVE_SHAPES:
        for flits in (16, 32):
            base = {**shape, "message_flits": flits, "backend": "batch", "sweep_points": 0}
            sat = _saturation(base)
            loads = [
                _sig(sat * (0.02 + 0.9 * i / SERVE_LOADS_PER_GROUP), 10)
                for i in range(SERVE_LOADS_PER_GROUP)
            ]
            started = time.perf_counter()
            answers = [_run({**base, "flit_load": x}) for x in loads]
            print(f"  {str(base):100s} {time.perf_counter() - started:6.1f} s",
                  file=sys.stderr, flush=True)
            saturations = {json.dumps(checks.run_answer(a)["saturation"]) for a in answers}
            if len(saturations) != 1:
                raise SystemExit(f"{base}: saturation depends on the operating point")
            groups.append({
                "base": base,
                "saturation": checks.rounded(checks.run_answer(answers[0])["saturation"]),
                "loads": loads,
                "latencies": [checks.rounded(a["point"]["latency"]) for a in answers],
            })
    warmup = {"topology": "bft", "num_processors": 16, "message_flits": 16,
              "backend": "batch", "sweep_points": 0, "flit_load": 0.0123456}
    return {
        "workload": "serve",
        "groups": groups,
        "template_per_group": SERVE_TEMPLATE_PER_GROUP,
        "warmup": {"scenario": warmup, "expect": checks.rounded(checks.run_answer(_run(warmup)))},
    }


GENERATORS = {
    "closed_form": closed_form,
    "stage_graph": stage_graph,
    "explore": explore,
    "simulate": simulate,
    "serve": serve,
}


def main(argv: list[str]) -> int:
    names = argv or list(GENERATORS)
    for name in names:
        print(f"{name}:", file=sys.stderr, flush=True)
        data = GENERATORS[name]()
        path = catalog.REFERENCE_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"wrote {path} ({Path(path).stat().st_size} bytes)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
