"""The repository benchmark: one workload, one seed, one line of metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workloads, metric names, units and
bounds are those of ``BENCHMARK.json``; ``README.md`` next to this file
says what each one measures.

Set-up is measured :data:`SETUP_RUNS` times, each in a fresh interpreter,
and reported as the median.  With ``--trace 0`` the last stdout line
holds the end-to-end metrics of the untraced run; with ``--trace 1`` it
holds the per-layer metrics of a traced replay of the same operations.
Every answer is checked against ``reference/``; ``correct`` is false
when any check failed.  The line before the result is a JSON detail
record (sample counts, set-up samples, first mismatches).
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import subprocess
import sys
import threading
import time
from pathlib import Path

import measure
import serve_bench

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 3
#: A run must end within 180 s; workers get this long from their start.
WORKER_TIMEOUT_S = 150.0
IMPORTTIME_TIMEOUT_S = 60.0


class Worker:
    """One ``worker.py`` process, read line by line with deadlines."""

    def __init__(self, python: str, env: dict, args: list[str]) -> None:
        self.started = time.perf_counter()
        self.deadline = time.monotonic() + WORKER_TIMEOUT_S
        self.proc = subprocess.Popen(
            [python, str(HERE / "worker.py"), *args], env=env, stdout=subprocess.PIPE, text=True
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def _next_line(self) -> str | None:
        try:
            return self._lines.get(timeout=max(self.deadline - time.monotonic(), 0.0))
        except queue.Empty:
            raise RuntimeError(f"worker {self.proc.args[2:]} timed out") from None

    def ready(self) -> float:
        """Seconds from launch until the worker reports ``READY``."""
        while True:
            line = self._next_line()
            if line == "READY":
                return time.perf_counter() - self.started
            if line is None:
                raise RuntimeError(f"worker {self.proc.args[2:]} exited during set-up")

    def result(self) -> dict | None:
        """The worker's last stdout line as JSON (None if it printed none)."""
        last = None
        while (line := self._next_line()) is not None:
            last = line
        if self.proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0)) != 0:
            raise RuntimeError(f"worker {self.proc.args[2:]} failed")
        return None if last is None else json.loads(last)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join()


def run_in_process(python: str, env: dict, workload: str, seed: int, seconds: float,
                   trace: bool) -> dict:
    setup_s = []
    for _ in range(SETUP_RUNS - 1):
        worker = Worker(python, env, [workload, str(seed), str(seconds), "setup"])
        try:
            setup_s.append(worker.ready())
            worker.result()
        finally:
            worker.close()
    args = [workload, str(seed), str(seconds), "measure"]
    if trace:
        trace_file = serve_bench.STATE / "traces" / f"{workload}-{seed}.json"
        args = [workload, str(seed), str(seconds), "trace", str(trace_file)]
    worker = Worker(python, env, args)
    try:
        setup_s.append(worker.ready())
        raw = worker.result()
        if raw is None:
            raise RuntimeError(f"worker {args} printed no result")
    finally:
        worker.close()
    return {**raw, "setup_s": setup_s}


def import_breakdown(python: str, env: dict) -> dict[str, float]:
    """``import.*`` metrics from a fresh interpreter run with ``-X importtime``."""
    probe = subprocess.run(
        [python, "-X", "importtime", "-c", "import repro"],
        env=env, capture_output=True, text=True, timeout=IMPORTTIME_TIMEOUT_S, check=True,
    )
    return measure.parse_importtime(probe.stderr)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("error: run from the repository root (src/repro is missing)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items() if k != "REPRO_OBS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    python = sys.executable
    serve_bench.STATE.mkdir(exist_ok=True)
    trace = bool(args.trace)
    try:
        if args.workload == "serve":
            raw = serve_bench.run(root, python, env, args.seed, args.seconds, trace, SETUP_RUNS)
        else:
            raw = run_in_process(python, env, args.workload, args.seed, args.seconds, trace)
        if trace:
            measured = {**raw["per_layer"], **import_breakdown(python, env)}
        else:
            measured = measure.end_to_end(raw)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    unknown = set(measured) - {m["name"] for m in declared}
    if unknown:
        print(f"error: metrics missing from BENCHMARK.json: {sorted(unknown)}", file=sys.stderr)
        return 1
    # A layer this workload never reaches did no work in it: 0.
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "samples": len(raw["samples_s"]),
        "cycle_s": raw.get("cycle_s"),
        "wall_clock": measure.wall_clock(raw),
        "setup_s_samples": raw["setup_s"],
        "failed_ratio": raw["failed"] / raw["attempted"],
        "mismatches": raw["mismatches"],
    }
    if trace:
        detail["missing_trace_targets"] = raw["missing_targets"]
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
