"""Small statistics helpers shared by telemetry, monitoring and dashboards.

Percentiles are read by one path: ``np.sort`` once, then interpolate in pure
Python.  ``_linear`` reproduces numpy's ``method="linear"`` quantile bit for
bit — the same virtual index, the same clamp at the top, numpy's ``_lerp``
arithmetic including its ``t >= 0.5`` branch — so every exported p99 is the
number ``numpy.percentile`` would give, without its per-call dispatch.  The
windows Algorithm 1 reads are short (tens to a few thousand latencies), and
there that dispatch, not the sort, is the cost.  The one case the sort cannot
settle is the sign of a zero next to the quantile: +0.0 and -0.0 compare
equal, so which one lands at a position is up to the sort algorithm (numpy's
vectorised sort may even return every zero as +0.0), and when the input
holds a -0.0 that case defers to ``numpy.percentile`` itself.  Outside this module the
library reads percentiles only through these helpers (lint rule R020).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile of ``values`` with linear interpolation.

    Returns 0.0 for an empty sequence — KPI code treats "no queries" as a
    zero latency rather than an error, matching dashboard behaviour.  A NaN
    anywhere in ``values`` makes the result NaN.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    arr = np.asarray(values, dtype=float)
    return _linear(np.sort(arr, axis=None), q, arr)


def _linear(ordered: np.ndarray, q: float, arr: np.ndarray) -> float:
    """``numpy.percentile(arr, q)``, read from ``ordered`` (``arr`` sorted).

    ``np.sort`` puts any NaN at the end of ``ordered``.
    """
    n = ordered.size
    if n == 0:
        return 0.0
    last = float(ordered[-1])
    if last != last:
        return last
    vi = (n - 1) * (float(q) / 100)
    if vi >= n - 1:
        # numpy moves both neighbours to index -1 before taking the
        # fractional part, so the weight is vi - (-1).
        a = b = last
        t = vi + 1
    else:
        i = int(vi)
        a = float(ordered[i])
        b = float(ordered[i + 1])
        t = vi - i
    if (a == 0.0 or b == 0.0) and np.signbit(arr[arr == 0.0]).any():
        return float(np.percentile(arr, q))
    diff = b - a
    if t >= 0.5:
        return b - diff * (1 - t)
    return a + diff * t


def median(values: Sequence[float]) -> float:
    """``numpy.median`` of a non-empty, NaN-free sequence, bit for bit: the
    middle value, or ``(a + b) / 2`` of the middle two.  numpy's own median
    imports ``numpy.ma`` on its first call."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (float(ordered[mid - 1]) + float(ordered[mid])) / 2


def ewma(values: Iterable[float], alpha: float) -> float:
    """Exponentially-weighted moving average of a value sequence.

    Returns 0.0 for an empty sequence.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    out = None
    for v in values:
        out = v if out is None else alpha * v + (1.0 - alpha) * out
    return 0.0 if out is None else float(out)


@dataclass
class StreamingStats:
    """Welford-style streaming mean/variance with min/max tracking."""

    count: int = 0
    mean: float = 0.0
    _m2: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count > 1 else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def zscore(self, value: float) -> float:
        """Z-score of ``value`` against the accumulated distribution.

        A zero-variance stream yields 0.0 (no evidence of anomaly) so spike
        detectors do not fire on constant histories.
        """
        if self.count < 2 or self.std == 0.0:
            return 0.0
        return (value - self.mean) / self.std


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Summary dict (count/mean/p50/p95/p99/max) used by dashboards."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
    ordered = np.sort(arr)
    return {
        "count": int(arr.size),
        "mean": float(arr.mean()),
        "p50": _linear(ordered, 50, arr),
        "p95": _linear(ordered, 95, arr),
        "p99": _linear(ordered, 99, arr),
        "max": float(arr.max()),
    }
