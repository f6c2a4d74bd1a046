"""Machine-speed calibration: timings that other tenants do not move.

The benchmark shares its machine, whose speed drifts by ±15 % over
seconds as neighbours come and go.  To keep one run comparable with the
next, a fixed calibration kernel (small NumPy array arithmetic, a Python
loop and JSON encoding, the same mix the library's operations spend their
time on) runs between operations, about every :data:`EVERY_S` seconds.
Each operation's wall time is then scaled by ``REFERENCE_S / k``, where
``k`` is the median kernel time from :data:`WINDOW_S` before the
operation to :data:`WINDOW_S` after it: the result
is the time the operation would take on a machine where the kernel takes
:data:`REFERENCE_S`.  The kernel is benchmark code, identical for every
commit measured, so the scaling cancels the machine's drift and nothing
else.  Raw wall-clock figures are kept in each run's detail record.
"""

from __future__ import annotations

import bisect
import json
import subprocess
import sys
import time
from typing import Callable

import numpy as np

#: Kernel time on the reference machine (a shared 2-core x86-64 VM).
REFERENCE_S = 0.0023
#: Wall time between kernel runs.
EVERY_S = 0.05
#: An operation is scaled by the median kernel time within this many
#: seconds of it: the machine's speed drifts over seconds, while single
#: kernel runs jitter.
WINDOW_S = 0.5


def kernel() -> float:
    """Run the calibration kernel once; returns its wall time."""
    started = time.perf_counter()
    base = np.linspace(0.1, 0.9, 64)
    acc = 0.0
    for i in range(120):
        b = base * (1.0 + i * 1e-6)
        c = np.where(b < 0.5, b / (1.0 - b), np.inf)
        acc += float(np.sum(c[np.isfinite(c)]))
        acc += len(json.dumps({"k": i, "v": list(range(20))}))
    if acc <= 0.0:  # never true; keeps the work from being optimised away
        raise AssertionError(acc)
    return time.perf_counter() - started


class Calibration:
    """Kernel timings taken during a run, and the scaling they imply.

    ``measure`` runs the kernel once and returns its time; by default in
    this process, or through a :class:`Probe` on another core.
    """

    def __init__(self, measure: Callable[[], float] = kernel) -> None:
        self.measure = measure
        self.kernel_s: list[float] = []
        self.kernel_at: list[float] = []
        self._last = float("-inf")

    def tick(self, force: bool = False) -> int:
        """Run the kernel if it is due; returns the index of the latest run.

        Call it before each operation, and with ``force`` once at the end.
        """
        if force or time.perf_counter() - self._last >= EVERY_S:
            self.kernel_at.append(time.perf_counter())
            self.kernel_s.append(self.measure())
            self._last = time.perf_counter()
        return len(self.kernel_s) - 1

    def scale(self, index: int) -> float:
        """Factor for an operation run between kernels ``index`` and ``index + 1``."""
        end = self.kernel_at[min(index + 1, len(self.kernel_at) - 1)]
        lo = bisect.bisect_left(self.kernel_at, self.kernel_at[index] - WINDOW_S)
        hi = bisect.bisect_right(self.kernel_at, end + WINDOW_S)
        around = sorted(self.kernel_s[lo:hi])
        return REFERENCE_S / around[len(around) // 2]

    def normalize(self, samples_s: list[float], indices: list[int]) -> list[float]:
        return [t * self.scale(i) for t, i in zip(samples_s, indices)]

    def median_s(self) -> float:
        ordered = sorted(self.kernel_s)
        return ordered[len(ordered) // 2] if ordered else 0.0


class Probe:
    """The kernel in a process of its own, so it can run on another core.

    ``repro serve`` runs in a separate process on a core of its own; a
    probe pinned to that core measures that core's speed.
    """

    def __init__(self, python: str) -> None:
        self.proc = subprocess.Popen(
            [python, __file__], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def measure(self) -> float:
        assert self.proc.stdin is not None and self.proc.stdout is not None
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        assert self.proc.stdin is not None
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


if __name__ == "__main__":
    # Probe side: one kernel run per input line, its time on stdout.
    for _ in sys.stdin:
        print(kernel(), flush=True)
