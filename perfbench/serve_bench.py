"""The ``serve`` workload: a closed-loop client against ``repro serve``.

The server runs in its own process on a fresh copy of the template
registry (10,000 records, seeded once per checkout by
``seed_template.py``).  One client process drives it over
:data:`CONNECTIONS` closed-loop connections: each sends its next request
only when the previous answer has arrived.  Of every five requests one
asks a fresh scenario (a miss: solve, registry append, index refresh) and
four repeat template scenarios (hits: indexed registry reads).

Answers are checked after the timed window: every record against the
reference answer, every hit byte-identical to the stored record, and the
``X-Repro-Cache`` header against the kind of request.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import queue
import re
import shutil
import signal
import subprocess
import threading
import time
from pathlib import Path
from typing import Any, Iterator

import catalog
import checks
import layers
from calibrate import Calibration, Probe
from measure import percentile

HERE = Path(__file__).resolve().parent
STATE = HERE / ".state"

CONNECTIONS = 2
#: Length of one load phase; the calibration kernel runs between phases.
PHASE_S = 0.25
CLIENT_CPU, SERVER_CPU = 0, 1
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
SEED_TIMEOUT_S = 150.0
MAX_REPORTED_MISMATCHES = 5


def pin(pid: int, cpu: int) -> None:
    """Keep ``pid`` (0: this thread, and threads it starts) on one CPU.

    The client and the server each get a core of their own, so the
    scheduler does not move them across cores mid-run; on a machine with
    fewer than two CPUs nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    if len(cpus) >= 2:
        os.sched_setaffinity(pid, {cpus[cpu]})


def _tree_digest(paths: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(str(path).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_template(root: Path, python: str, env: dict) -> Path:
    """The seeded template registry, created on first use.

    Keyed by the catalog, the seeding script and the program's sources, so
    a template is never reused across versions of any of them.
    """
    sources = sorted((root / "src").rglob("*.py"))
    key = _tree_digest([catalog.REFERENCE_DIR / "serve.json", HERE / "seed_template.py", *sources])
    template = STATE / f"serve-template-{key}"
    if (template / "digests.json").exists():
        return template
    partial = template.with_name(f"{template.name}.partial-{os.getpid()}")
    shutil.rmtree(partial, ignore_errors=True)
    partial.mkdir(parents=True)
    subprocess.run(
        [python, str(HERE / "seed_template.py"), str(partial)],
        env=env, check=True, timeout=SEED_TIMEOUT_S, stdout=subprocess.DEVNULL,
    )
    os.replace(partial, template)
    return template


class Server:
    """One ``repro serve`` process on its own copy of the template."""

    def __init__(self, python: str, env: dict, template: Path, workdir: Path,
                 launcher: list[str] | None = None) -> None:
        self.workdir = workdir
        self.traced = launcher is not None
        self.proc: subprocess.Popen | None = None
        self._lines: queue.Queue = queue.Queue()
        shutil.copytree(template / "registry", workdir / "registry")
        serve_args = ["--host", "127.0.0.1", "--port", "0", "--registry", str(workdir / "registry")]
        if launcher is None:
            cmd = [python, "-m", "repro", "serve", *serve_args]
        else:
            cmd = [python, *launcher, "--", *serve_args]
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
        pin(self.proc.pid, SERVER_CPU)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            line = self._lines.get(timeout=START_TIMEOUT_S)
        except queue.Empty:
            line = None
        match = re.search(r"listening on http://([\d.]+):(\d+)", line or "")
        if match is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def _read(self) -> None:
        assert self.proc is not None and self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def request(self, method: str, path: str, body: bytes | None = None) -> tuple[int, str, bytes]:
        """One HTTP exchange; returns (status, X-Repro-Cache header, body)."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            return response.status, response.getheader("X-Repro-Cache", ""), response.read()
        finally:
            conn.close()

    def wait_healthy(self) -> None:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                if self.request("GET", "/health")[0] == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve never answered /health")
            time.sleep(0.01)

    def stats(self) -> dict:
        return json.loads(self.request("GET", "/stats")[2])

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        status = Path(f"/proc/{self.proc.pid}/status").read_text(encoding="ascii")
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024.0

    def signal(self, signum: int) -> None:
        assert self.proc is not None
        self.proc.send_signal(signum)

    def stop(self) -> None:
        if self.proc is not None:
            if self.proc.poll() is None:
                # The traced launcher shuts down cleanly on SIGINT to write its
                # summary; a plain server has nothing to save.
                self.proc.send_signal(signal.SIGINT if self.traced else signal.SIGTERM)
                try:
                    self.proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self._reader.join(timeout=STOP_TIMEOUT_S)
            self.proc = None
        shutil.rmtree(self.workdir, ignore_errors=True)


class Client:
    """Sends requests and checks the answers against the reference."""

    def __init__(self, reference: dict, digests: dict[str, str]) -> None:
        self.reference = reference
        self.digests = digests
        self.mismatches: list[str] = []

    def body(self, group: int, index: int) -> bytes:
        return json.dumps(catalog.serve_scenario(self.reference, group, index)).encode()

    def problems(self, kind: str, group: int | None, index: int | None,
                 status: int, cache: str, body: bytes) -> list[str]:
        if status != 200:
            return [f"HTTP {status}: {body[:200]!r}"]
        if cache != kind:
            return [f"X-Repro-Cache {cache!r}, expected {kind!r}"]
        metrics = json.loads(body)["metrics"]
        if group is None:
            expect = self.reference["warmup"]["expect"]
        else:
            g = self.reference["groups"][group]
            expect = {"latency": g["latencies"][index], "saturation": g["saturation"]}
        problems = checks.compare(expect, checks.run_answer(metrics))
        if kind == "hit" and checks.metrics_digest(metrics) != self.digests[f"{group}:{index}"]:
            problems.append("hit metrics differ from the stored record")
        return problems

    def failed(self, kind: str, group: int | None, index: int | None,
               status: int, cache: str, body: bytes) -> bool:
        problems = self.problems(kind, group, index, status, cache, body)
        if problems and len(self.mismatches) < MAX_REPORTED_MISMATCHES:
            self.mismatches.append(f"{kind} {group}:{index}: {problems[0]}")
        return bool(problems)

    def warm_up(self, server: Server) -> int:
        """One miss and one hit; returns the number that failed."""
        warmup = json.dumps(self.reference["warmup"]["scenario"]).encode()
        failed = self.failed("miss", None, None, *server.request("POST", "/solve", warmup))
        template, _ = catalog.serve_split(self.reference)
        g, i = template[0]
        failed += self.failed("hit", g, i, *server.request("POST", "/solve", self.body(g, i)))
        return failed

    def load(self, server: Server, probe: Probe, requests: Iterator, seconds: float,
             limit: int | None = None) -> dict:
        """Closed-loop load over :data:`CONNECTIONS` connections.

        Runs until ``seconds`` have passed and :data:`catalog.MIN_SAMPLES`
        requests are done, or exactly ``limit`` requests when given.  The
        load runs in phases of :data:`PHASE_S`; between phases, with no
        request in flight, the calibration ``probe`` on the server's core
        measures its speed, which scales the phase's times (see
        :mod:`calibrate`).
        """
        lock = threading.Lock()
        results: list[tuple] = []
        phases: list[tuple[float, float, int]] = []
        issued = 0
        exhausted = False
        calibration = Calibration(probe.measure)
        calibration.tick(force=True)
        started = time.perf_counter()

        def connection(phase_end: float, phase: int) -> None:
            nonlocal issued, exhausted
            while True:
                with lock:
                    if exhausted or time.perf_counter() >= phase_end or (
                            limit is not None and issued >= limit):
                        return
                    item = next(requests, None)
                    if item is None:
                        exhausted = True
                        return
                    issued += 1
                kind, g, i = item
                body = self.body(g, i)
                t0 = time.perf_counter()
                status, cache, answer = server.request("POST", "/solve", body)
                t1 = time.perf_counter()
                with lock:
                    results.append((kind, g, i, t0, t1, status, cache, answer, phase))

        while True:
            phase = len(phases)
            phase_start = time.perf_counter()
            threads = [threading.Thread(target=connection, args=(phase_start + PHASE_S, phase))
                       for _ in range(CONNECTIONS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            phases.append((phase_start, time.perf_counter(), calibration.tick(force=True) - 1))
            if exhausted or (limit is not None and issued >= limit):
                break
            if limit is None and (time.perf_counter() - started >= seconds
                                  and issued >= catalog.MIN_SAMPLES):
                break
        results.sort(key=lambda r: r[3])
        scale = [calibration.scale(index) for _, _, index in phases]
        return {
            "results": results,
            "samples": [(r[4] - r[3]) * scale[r[8]] for r in results],
            "raw_samples": [r[4] - r[3] for r in results],
            "busy_s": sum((end - start) * scale[p] for p, (start, end, _) in enumerate(phases)),
            "kernel_median_s": calibration.median_s(),
        }

    def check(self, results: list[tuple]) -> tuple[int, list[dict]]:
        """(failed requests, the metrics of the answered misses)."""
        failed, misses = 0, []
        for kind, g, i, _, _, status, cache, answer, _ in results:
            if self.failed(kind, g, i, status, cache, answer):
                failed += 1
            elif kind == "miss":
                misses.append(json.loads(answer)["metrics"])
        return failed, misses


def split_latencies(results: list[tuple], samples: list[float]) -> dict[str, float]:
    """Hit and miss latency quantiles (ms) of a window's scaled samples."""
    hits = [1e3 * t for r, t in zip(results, samples) if r[0] == "hit"]
    misses = [1e3 * t for r, t in zip(results, samples) if r[0] == "miss"]
    return {
        "serve.hit_p50_ms": percentile(hits, 0.50),
        "serve.hit_p99_ms": percentile(hits, 0.99),
        "serve.miss_p50_ms": percentile(misses, 0.50),
        "serve.miss_p90_ms": percentile(misses, 0.90),
    }


def _span_delta(before: dict, after: dict, name: str) -> tuple[int, float]:
    a = after.get("spans", {}).get(name, {"count": 0, "total_s": 0.0})
    b = before.get("spans", {}).get(name, {"count": 0, "total_s": 0.0})
    return a["count"] - b["count"], a["total_s"] - b["total_s"]


def _counter_delta(before: dict, after: dict, name: str) -> float:
    return after.get("counters", {}).get(name, 0) - before.get("counters", {}).get(name, 0)


def serve_layer_metrics(before: dict, after: dict, results: list[tuple],
                        tracer: dict) -> dict[str, float]:
    """``serve.*`` metrics of a traced window.

    ``before``/``after`` are the server's ``/stats`` around the window,
    ``results`` the client's requests in it and ``tracer`` the server-side
    :meth:`layers.Tracer.summary`.
    """
    n = max(len(results), 1)
    requests, request_s = _span_delta(before, after, "serve/request")
    _, solve_s = _span_delta(before, after, "serve/solve")
    hits = _counter_delta(before, after, "serve.cache.hits")
    misses = _counter_delta(before, after, "serve.cache.misses")
    round_trip_ms = 1e3 * sum(r[4] - r[3] for r in results) / n
    request_ms = 1e3 * request_s / max(requests, 1)
    return {
        "serve.request_ms": request_ms,
        "serve.solve_ms": 1e3 * solve_s / n,
        "serve.client_wait_ms": round_trip_ms - request_ms,
        "serve.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.coalesced": _counter_delta(before, after, "serve.coalesced") / n,
        "serve.errors": _counter_delta(before, after, "serve.errors") / n,
        # Core work outside any Runner.run: what a cache hit must not do.
        "serve.hit_core_calls": float(tracer["core_outside_run"]),
    }


def _traced_pass(python: str, env: dict, template: Path, client: Client, probe: Probe,
                 seed: int, count: int) -> tuple[dict, dict, int]:
    """Replay the first ``count`` requests against a traced server."""
    summary_file = STATE / f"serve-summary-{os.getpid()}.json"
    summary_file.unlink(missing_ok=True)
    trace_file = STATE / "traces" / f"serve-{seed}.json"
    launcher = [str(HERE / "serve_launcher.py"), str(summary_file), str(trace_file)]
    server = Server(python, env, template, STATE / f"serve-traced-{os.getpid()}", launcher)
    try:
        server.wait_healthy()
        failed = client.warm_up(server)
        server.signal(signal.SIGUSR1)
        deadline = time.monotonic() + START_TIMEOUT_S
        while not summary_file.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("traced server never started its window")
            time.sleep(0.01)
        before = server.stats()
        traced = client.load(server, probe, catalog.serve_requests(client.reference, seed),
                             0.0, count)
        after = server.stats()
    finally:
        server.stop()
    summary = json.loads(summary_file.read_text(encoding="utf-8"))
    summary_file.unlink()
    traced_failed, miss_records = client.check(traced["results"])
    n = len(traced["results"])
    per_layer = layers.layer_metrics(
        ops=n,
        tracer=summary["tracer"],
        telemetry=summary["telemetry"],
        records=miss_records,
        flow_cache=tuple(summary["flow_cache"]),
    )
    per_layer.update(serve_layer_metrics(before, after, traced["results"], summary["tracer"]))
    traced["missing_targets"] = summary["tracer"]["missing"]
    return traced, per_layer, failed + traced_failed


def run(root: Path, python: str, env: dict, seed: int, seconds: float, trace: bool,
        setup_runs: int) -> dict:
    """One serve run; returns the same raw result layout as ``worker.py``."""
    template = ensure_template(root, python, env)
    pin(0, CLIENT_CPU)
    reference = catalog.load_reference("serve")
    client = Client(reference, json.loads((template / "digests.json").read_text(encoding="utf-8")))
    setup_s: list[float] = []
    failed = attempted = 0
    server = None
    probe = Probe(python)
    try:
        pin(probe.proc.pid, SERVER_CPU)
        probe.measure()  # started and warm before anything is timed
        for k in range(setup_runs):
            started = time.perf_counter()
            server = Server(python, env, template, STATE / f"serve-run-{os.getpid()}-{k}")
            server.wait_healthy()
            failed += client.warm_up(server)
            attempted += 2
            setup_s.append(time.perf_counter() - started)
            if k < setup_runs - 1:
                server.stop()
        assert server is not None
        window = client.load(server, probe, catalog.serve_requests(reference, seed), seconds)
        peak_rss_mb = server.peak_rss_mb()
        server.stop()
        server = None
        if trace:
            traced, per_layer, traced_failed = _traced_pass(
                python, env, template, client, probe, seed, len(window["results"]))
    finally:
        if server is not None:
            server.stop()
        probe.close()
    results = window["results"]
    window_failed, _ = client.check(results)
    out: dict[str, Any] = {
        "setup_s": setup_s,
        "samples_s": window["samples"],
        "raw_samples_s": window["raw_samples"],
        "busy_s": window["busy_s"],
        "kernel_median_s": window["kernel_median_s"],
        "work": float(len(results) - window_failed),
        "attempted": attempted + len(results),
        "failed": failed + window_failed,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        per_layer.update(split_latencies(results, window["samples"]))
        per_layer["obs.tracing_overhead_ratio"] = traced["busy_s"] / window["busy_s"]
        out["per_layer"] = per_layer
        out["missing_targets"] = traced["missing_targets"]
        out["attempted"] += 2 + len(traced["results"])
        out["failed"] += traced_failed
    out["mismatches"] = client.mismatches
    return out
