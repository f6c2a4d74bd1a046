"""Start ``repro serve`` with the layer wrappers installed (traced serve runs).

    python3 perfbench/serve_launcher.py SUMMARY_FILE TRACE_FILE -- SERVE_ARGS...

Installs the :mod:`layers` wrappers and enables the process-wide metrics
registry, then calls the ``repro serve`` entry point.  ``SIGUSR1`` starts
the measured window: totals and counters are reset and ``SUMMARY_FILE``
is created empty, so the client knows the reset is done.  When the server
stops (``SIGINT``), the tracer totals, the counters and the flow-cache
deltas of the window are written to ``SUMMARY_FILE`` and the kept spans to
``TRACE_FILE``.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from pathlib import Path

import layers


def main(argv: list[str]) -> int:
    summary_file, trace_file = Path(argv[0]), Path(argv[1])
    serve_args = argv[argv.index("--") + 1:]

    from repro import cli
    from repro.obs import METRICS

    tracer = layers.Tracer()
    tracer.install()
    METRICS.enabled = True
    window: dict = {"flow_cache": layers.flow_cache_info()}

    def reset() -> None:
        tracer.reset()
        METRICS.reset()
        window["flow_cache"] = layers.flow_cache_info()
        summary_file.write_text("", encoding="utf-8")

    def start_window(signum: int, frame: object) -> None:
        # The handler may interrupt a holder of the locks reset() takes,
        # so the reset runs on a thread of its own.
        thread = threading.Thread(target=reset, name="perfbench-reset")
        window["reset"] = thread
        thread.start()

    signal.signal(signal.SIGUSR1, start_window)
    # SIGINT stops the server, even when this process inherited it ignored
    # (as background jobs do).
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        status = cli.main(["serve", *serve_args])
    finally:
        if "reset" in window:
            window["reset"].join()
        tracer.uninstall()
        hits, misses = layers.flow_cache_info()
        before = window["flow_cache"]
        summary = {
            "tracer": tracer.summary(),
            "telemetry": METRICS.snapshot(),
            "flow_cache": [hits - before[0], misses - before[1]],
        }
        tracer.write(trace_file)
        summary_file.write_text(json.dumps(summary), encoding="utf-8")
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
