"""Streaming statistics and confidence intervals for simulation output.

:class:`OnlineStats` implements Welford's numerically stable one-pass
algorithm so simulators can accumulate millions of latency samples without
storing them.  :func:`mean_confidence_interval` provides Student-t intervals
for replicated runs, and :func:`batch_means` implements the classic
batch-means method for a single long run with autocorrelated samples.
:func:`student_t_quantile` supplies the critical values from the standard
library alone (regularized incomplete beta by continued fraction, solved
by safeguarded Newton), so the package needs no SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["OnlineStats", "mean_confidence_interval", "batch_means", "student_t_quantile"]


@dataclass
class OnlineStats:
    """Welford one-pass accumulator for mean / variance / extremes."""

    count: int = 0
    _mean: float = 0.0
    _m2: float = 0.0
    min: float = field(default=math.inf)
    max: float = field(default=-math.inf)

    def add(self, x: float) -> None:
        """Accumulate a single observation."""
        self.count += 1
        delta = x - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def add_many(self, xs: Sequence[float]) -> None:
        """Accumulate a batch of observations."""
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        """Sample mean (NaN when empty)."""
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance (NaN for fewer than two samples)."""
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        """Unbiased sample standard deviation."""
        v = self.variance
        return math.sqrt(v) if not math.isnan(v) else math.nan

    @property
    def stderr(self) -> float:
        """Standard error of the mean."""
        if self.count < 2:
            return math.nan
        return self.std / math.sqrt(self.count)

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Return a new accumulator equivalent to both inputs combined."""
        if other.count == 0:
            out = OnlineStats(self.count, self._mean, self._m2, self.min, self.max)
            return out
        if self.count == 0:
            return OnlineStats(other.count, other._mean, other._m2, other.min, other.max)
        n = self.count + other.count
        delta = other._mean - self._mean
        mean = self._mean + delta * other.count / n
        m2 = self._m2 + other._m2 + delta * delta * self.count * other.count / n
        return OnlineStats(n, mean, m2, min(self.min, other.min), max(self.max, other.max))


def mean_confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> tuple[float, float]:
    """Student-t confidence half-interval for the mean of ``samples``.

    Returns ``(mean, half_width)``.  With fewer than two samples the half
    width is ``inf`` (no variance information).
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        return math.nan, math.inf
    mean = float(arr.mean())
    if arr.size < 2:
        return mean, math.inf
    sem = float(arr.std(ddof=1) / math.sqrt(arr.size))
    tcrit = student_t_quantile(0.5 + confidence / 2.0, arr.size - 1)
    return mean, tcrit * sem


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    # Converges in O(sqrt(max(a, b))) terms on the side of the symmetry
    # point this is called on.
    for m in range(1, 200 + int(20.0 * math.sqrt(a + b))):
        for aa in (
            m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0)),
        ):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            delta = c * d
            h *= delta
        if abs(delta - 1.0) < 4e-16:
            break
    return h


def _regularized_beta(a: float, b: float, x: float, y: float) -> float:
    """``I_x(a, b)``, with ``y = 1 - x`` passed in to keep its precision."""
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    # log1p of the smaller side keeps log(x) exact when x is near 1.
    log_x = math.log1p(-y) if x > 0.5 else math.log(x)
    log_y = math.log1p(-x) if y > 0.5 else math.log(y)
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * log_x + b * log_y
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_continued_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_continued_fraction(b, a, y) / b


def student_t_quantile(p: float, df: float) -> float:
    """Quantile of Student's t distribution with ``df`` degrees of freedom.

    Solves ``P(T > t) = 1 - p`` for ``t``, where the upper tail is
    ``I_{df/(df+t^2)}(df/2, 1/2) / 2``, by Newton steps on the density kept
    inside a shrinking bisection bracket.  Agrees with the reference
    tables to ~1e-13 relative up to ``df = 1000`` and ~1e-9 beyond (where
    ``lgamma`` cancellation sets the floor).
    """
    if not (0.0 < p < 1.0) or not (df > 0.0):
        raise ValueError(f"need 0 < p < 1 and df > 0, got p={p!r}, df={df!r}")
    if p < 0.5:
        return -student_t_quantile(1.0 - p, df)
    q = 1.0 - p  # upper-tail mass
    if q >= 0.5:
        return 0.0  # the median
    log_norm = (
        math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0)
        - 0.5 * math.log(df * math.pi)
    )

    def tail(t: float) -> float:
        t2 = t * t
        return 0.5 * _regularized_beta(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))

    def density(t: float) -> float:
        return math.exp(log_norm - 0.5 * (df + 1.0) * math.log1p(t * t / df))

    lo, hi = 0.0, 1.0
    while tail(hi) > q:
        lo, hi = hi, 2.0 * hi
    t = 0.5 * (lo + hi)
    for _ in range(100):
        excess = tail(t) - q  # decreasing in t
        if excess > 0.0:
            lo = t
        else:
            hi = t
        step = t + excess / density(t)
        if not (lo < step < hi):
            step = 0.5 * (lo + hi)
        if abs(step - t) <= 1e-15 * step:
            return step
        t = step
    return t


def batch_means(
    samples: Sequence[float], n_batches: int = 20, confidence: float = 0.95
) -> tuple[float, float]:
    """Batch-means confidence interval for autocorrelated sample streams.

    Splits the (time-ordered) sample stream into ``n_batches`` contiguous
    batches, treats batch averages as approximately independent, and returns
    ``(mean, half_width)``.
    """
    arr = np.asarray(list(samples), dtype=float)
    if arr.size < n_batches * 2:
        return mean_confidence_interval(arr, confidence)
    usable = (arr.size // n_batches) * n_batches
    batches = arr[:usable].reshape(n_batches, -1).mean(axis=1)
    return mean_confidence_interval(batches, confidence)
