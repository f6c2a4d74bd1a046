"""Turn raw run results into the metrics ``BENCHMARK.json`` names."""

from __future__ import annotations

import math
import statistics


#: Half-width, in quantile, of the window a percentile averages over.
SMOOTHING = 0.02


def percentile(values: list[float], q: float) -> float:
    """The ``q`` quantile, smoothed: the mean of the order statistics
    between quantiles ``q - SMOOTHING`` and ``q + SMOOTHING``.

    A workload repeats a fixed set of operations whose latencies form
    tight clusters; a plain order statistic jumps between two clusters
    when the quantile falls on a gap, the window does not.  Returns 0 when
    there are no values.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    last = len(ordered) - 1
    lo = max(0, math.floor((q - SMOOTHING) * last))
    hi = min(last, math.ceil((q + SMOOTHING) * last))
    window = ordered[lo:hi + 1]
    return sum(window) / len(window)


def end_to_end(raw: dict) -> dict[str, float]:
    """The end-to-end metrics of one untraced run.

    Times are scaled to the reference machine speed (see :mod:`calibrate`);
    ``busy_s`` is the scaled time spent in operations.
    """
    samples_ms = [1e3 * s for s in raw["samples_s"]]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "ops_per_s": raw["work"] / raw["busy_s"],
        "latency_p50_ms": percentile(samples_ms, 0.50),
        "latency_p90_ms": percentile(samples_ms, 0.90),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def wall_clock(raw: dict) -> dict[str, float]:
    """Unscaled throughput and latencies, for the detail record."""
    samples_ms = [1e3 * s for s in raw["raw_samples_s"]]
    return {
        "latency_p50_ms": percentile(samples_ms, 0.50),
        "latency_p90_ms": percentile(samples_ms, 0.90),
        "kernel_median_ms": 1e3 * raw["kernel_median_s"],
    }


def parse_importtime(stderr: str) -> dict[str, float]:
    """``import.*`` milliseconds from ``python -X importtime -c 'import repro'``.

    ``import.repro_ms`` is the whole ``import repro``, dependencies
    included.  A dependency's time is the sum of the self times of its
    modules, so it is charged once however deep it was first imported.
    """
    us = {"repro": 0, "scipy": 0, "networkx": 0, "numpy": 0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = [f.strip() for f in line[len("import time:"):].split("|")]
        if not fields[0].isdigit():
            continue  # the header line
        name = fields[2]
        if name == "repro":
            us["repro"] = int(fields[1])
        elif name.split(".")[0] in us and name.split(".")[0] != "repro":
            us[name.split(".")[0]] += int(fields[0])
    return {f"import.{name}_ms": value / 1e3 for name, value in us.items()}
