"""Cluster-count prediction (§5.2 "Impact on warehouse parallelism").

When KWO has capped a warehouse at 4 clusters but the customer's original
setting was 10, the replay must estimate how many clusters *would* have run
at each point in time.  Following the paper, queries are batched into
mini-windows and the model predicts the average cluster count per window.

The predictor is hybrid (§5 "Our approach"): an **analytical demand
estimate** — concurrent queries divided by per-cluster concurrency slots —
multiplied by a **learned calibration coefficient** fitted against windows
whose true cluster counts telemetry actually observed.  The calibration
absorbs systematic simulation error (scale-out delays, scheduler slack,
policy conservatism); disabling it is the `bench_ablation_calibration`
ablation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.costmodel.kernels import IntervalArrays, as_interval_arrays, bucketed_overlap
from repro.durability.codec import require_keys
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.queries import QueryRecord

#: Mini-window width used for batching (paper: "mini-windows").
MINI_WINDOW_SECONDS = 300.0


def concurrency_profile(
    intervals: list[tuple[float, float]] | IntervalArrays,
    start: float,
    end: float,
    step: float,
) -> np.ndarray:
    """Average number of concurrently busy intervals per mini-window.

    ``intervals`` are (begin, finish) busy spans — a list of pairs or a
    ``(starts, ends)`` array pair; the result has one entry per mini-window
    of width ``step`` covering [start, end).
    """
    begins, finishes = as_interval_arrays(intervals)
    n = max(1, int(math.ceil((end - start) / step)))
    if begins.size == 0:
        return np.zeros(n)
    # Clip to the profiled range first — exactly the scalar oracle's lo/hi —
    # so the bucket edges computed from the clipped values match bit for bit.
    lo = np.maximum(begins, start)
    hi = np.minimum(finishes, end)
    keep = hi > lo
    busy = bucketed_overlap(lo[keep], hi[keep], start, step, n)
    return busy / step


@dataclass
class ClusterCountPredictor:
    """Hybrid analytic + calibrated cluster count model."""

    calibrate: bool = True
    calibration: float = 1.0
    fitted: bool = False

    def fit(self, records: list[QueryRecord], config: WarehouseConfig) -> "ClusterCountPredictor":
        """Fit the calibration against observed per-window cluster counts.

        ``config`` is the configuration whose cluster bounds were in force
        when ``records`` executed (so the analytic demand is comparable).
        """
        if not records:
            self.fitted = True
            return self
        start = min(r.start_time for r in records)
        end = max(r.end_time for r in records)
        intervals = [(r.start_time, r.end_time) for r in records]
        demand = self._analytic_clusters(
            concurrency_profile(intervals, start, end, MINI_WINDOW_SECONDS), config
        )
        observed = self._observed_clusters(records, start, end)
        mask = (demand > 0) & (observed > 0)
        if self.calibrate and mask.sum() >= 3:
            # Least squares through the origin: observed ≈ k * analytic.
            x = demand[mask]
            y = observed[mask]
            self.calibration = float(np.clip(np.dot(x, y) / np.dot(x, x), 0.5, 2.0))
        else:
            self.calibration = 1.0
        self.fitted = True
        return self

    # ----------------------------------------------------------- durability
    def state_dict(self) -> dict:
        return {
            "calibrate": self.calibrate,
            "calibration": self.calibration,
            "fitted": self.fitted,
        }

    def load_state_dict(self, state: dict) -> None:
        require_keys(state, ("calibrate", "calibration", "fitted"), "ClusterCountPredictor")
        self.calibrate = bool(state["calibrate"])
        self.calibration = float(state["calibration"])
        self.fitted = bool(state["fitted"])

    @staticmethod
    def _analytic_clusters(concurrency: np.ndarray, config: WarehouseConfig) -> np.ndarray:
        clusters = np.ceil(concurrency / config.max_concurrency)
        return np.clip(clusters, 1.0, float(config.max_clusters)) * (concurrency > 0)

    @staticmethod
    def _observed_clusters(
        records: list[QueryRecord], start: float, end: float
    ) -> np.ndarray:
        """Average of the max cluster number seen per mini-window."""
        n = max(1, int(math.ceil((end - start) / MINI_WINDOW_SECONDS)))
        peak = np.zeros(n)
        for r in records:
            w = int((r.start_time - start) // MINI_WINDOW_SECONDS)
            if 0 <= w < n:
                peak[w] = max(peak[w], float(r.cluster_number))
        return peak

    def predict_from_concurrency(
        self, concurrency: np.ndarray, config: WarehouseConfig
    ) -> np.ndarray:
        """Predicted average cluster count per mini-window under ``config``,
        from the mini-windows' :func:`concurrency_profile`."""
        analytic = self._analytic_clusters(concurrency, config)
        k = self.calibration if self.calibrate else 1.0
        predicted = analytic * k
        active = analytic > 0
        predicted[active] = np.clip(predicted[active], 1.0, float(config.max_clusters))
        # Maximized mode keeps min_clusters running whenever active.
        predicted[active] = np.maximum(predicted[active], float(config.min_clusters))
        return predicted
