"""State featurization for the smart model (§6.1's training data, §6's DRL).

The state the agent sees is built purely from telemetry metadata and the
live warehouse status — never from query text or customer data (C6).  It
captures the four inputs the paper says smart models consult: historical
patterns (time-of-day encodings, arrival EWMAs), the current configuration,
real-time feedback (queueing, latency vs. baseline) and workload pressure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.simtime import DAY, HOUR, Window, day_of_week, hour_of_day
from repro.common.stats import percentile
from repro.durability.codec import decode_array, encode_array, require_keys
from repro.warehouse.api import WarehouseInfo
from repro.warehouse.config import MAX_CLUSTER_COUNT, WarehouseConfig
from repro.warehouse.queries import QueryRecord
from repro.warehouse.types import WarehouseSize

#: Number of entries in the feature vector (kept explicit so agents can be
#: constructed before any telemetry exists).
FEATURE_DIM = 22


@dataclass
class WorkloadBaseline:
    """Per-warehouse baselines fitted on the pre-optimization history.

    Used to normalize features (and by the monitor to define "degraded").
    """

    p99_latency: float = 10.0
    avg_latency: float = 5.0
    arrivals_per_hour_by_hour: np.ndarray | None = None  # shape (24,)
    #: 99th percentile, over pre-optimization history, of the ratio between a
    #: 15-minute window's p99 and the global baseline p99.  This is what
    #: "normal p99 volatility" looks like *without* any optimizer — backoff
    #: thresholds below it would thrash on ordinary workload noise.
    window_p99_ratio_q99: float = 1.5

    @classmethod
    def fit(cls, records: list[QueryRecord], window_seconds: float = 900.0) -> "WorkloadBaseline":
        if not records:
            return cls()
        latencies = [r.total_seconds for r in records]
        p99 = max(percentile(latencies, 99), 1e-3)
        by_hour = np.zeros(24)
        start = min(r.arrival_time for r in records)
        end = max(r.arrival_time for r in records)
        for r in records:
            by_hour[int(hour_of_day(r.arrival_time))] += 1
        n_days = max(1.0, (end - start) / DAY)
        return cls(
            p99_latency=p99,
            avg_latency=max(float(np.mean(latencies)), 1e-3),
            arrivals_per_hour_by_hour=by_hour / n_days,
            window_p99_ratio_q99=cls._window_ratio_q99(records, p99, window_seconds),
        )

    @staticmethod
    def _window_ratio_q99(
        records: list[QueryRecord], global_p99: float, window_seconds: float
    ) -> float:
        """Distribution of short-window p99/global-p99 ratios in history."""
        start = min(r.arrival_time for r in records)
        end = max(r.arrival_time for r in records)
        ratios: list[float] = []
        t = start
        ordered = sorted(records, key=lambda r: r.arrival_time)
        i = 0
        while t < end:
            bucket = []
            while i < len(ordered) and ordered[i].arrival_time < t + window_seconds:
                bucket.append(ordered[i].total_seconds)
                i += 1
            if len(bucket) >= 5:
                ratios.append(percentile(bucket, 99) / global_p99)
            t += window_seconds
        if not ratios:
            return 1.5
        return max(percentile(ratios, 99), 1.0)

    def expected_arrivals_per_hour(self, t: float) -> float:
        if self.arrivals_per_hour_by_hour is None:
            return 0.0
        return float(self.arrivals_per_hour_by_hour[int(hour_of_day(t))])

    # ----------------------------------------------------------- durability
    def state_dict(self) -> dict:
        return {
            "p99_latency": self.p99_latency,
            "avg_latency": self.avg_latency,
            "arrivals_per_hour_by_hour": (
                None
                if self.arrivals_per_hour_by_hour is None
                else encode_array(self.arrivals_per_hour_by_hour)
            ),
            "window_p99_ratio_q99": self.window_p99_ratio_q99,
        }

    @classmethod
    def from_state(cls, state: dict) -> "WorkloadBaseline":
        require_keys(
            state,
            ("p99_latency", "avg_latency", "arrivals_per_hour_by_hour", "window_p99_ratio_q99"),
            "WorkloadBaseline",
        )
        by_hour = state["arrivals_per_hour_by_hour"]
        return cls(
            p99_latency=float(state["p99_latency"]),
            avg_latency=float(state["avg_latency"]),
            arrivals_per_hour_by_hour=None if by_hour is None else decode_array(by_hour),
            window_p99_ratio_q99=float(state["window_p99_ratio_q99"]),
        )


class FeatureExtractor:
    """Builds the fixed-size state vector for one warehouse."""

    def __init__(self, baseline: WorkloadBaseline, original: WarehouseConfig):
        self.baseline = baseline
        self.original = original

    def extract(
        self,
        now: float,
        recent: list[QueryRecord],
        previous: list[QueryRecord],
        info: WarehouseInfo,
    ) -> np.ndarray:
        """State at ``now``.

        ``recent`` is the last decision interval's completed queries,
        ``previous`` the interval before (so the agent can see trends), and
        ``info`` the live warehouse status.
        """
        config = info.config
        h = hour_of_day(now) / 24.0
        d = day_of_week(now) / 7.0
        lat_recent = [r.total_seconds for r in recent]
        p99_recent = percentile(lat_recent, 99)
        exec_recent = [r.execution_seconds for r in recent]
        queue_recent = [r.queued_seconds for r in recent]
        hits = [r.cache_hit_ratio for r in recent]
        expected_rate = self.baseline.expected_arrivals_per_hour(now)
        features = np.array(
            [
                np.sin(2 * np.pi * h),
                np.cos(2 * np.pi * h),
                np.sin(2 * np.pi * d),
                np.cos(2 * np.pi * d),
                np.log1p(len(recent)),
                np.log1p(len(previous)),
                np.log1p(expected_rate),
                np.log1p(float(np.mean(exec_recent)) if exec_recent else 0.0),
                np.log1p(p99_recent),
                np.log1p(float(np.mean(queue_recent)) if queue_recent else 0.0),
                # Performance relative to the pre-optimization baseline: the
                # key self-correction signal.
                min(p99_recent / self.baseline.p99_latency, 5.0)
                if lat_recent
                else 0.0,
                float(np.mean(hits)) if hits else 1.0,
                np.log1p(info.queue_length),
                np.log1p(info.running_queries),
                info.active_clusters / MAX_CLUSTER_COUNT,
                config.size.value / WarehouseSize.SIZE_6XL.value,
                (config.size.value - self.original.size.value) / 4.0,
                np.log1p(config.auto_suspend_seconds) / np.log1p(3600.0),
                config.max_clusters / MAX_CLUSTER_COUNT,
                (config.max_clusters - self.original.max_clusters)
                / MAX_CLUSTER_COUNT,
                1.0 if info.state.value == "suspended" else 0.0,
                min(len(recent) / max(expected_rate / (HOUR / 600.0), 1.0), 5.0),
            ],
            dtype=float,
        )
        assert features.shape == (FEATURE_DIM,)
        return features


def interval_windows(now: float, interval: float) -> tuple[Window, Window]:
    """The (recent, previous) telemetry windows for feature extraction."""
    recent = Window(max(0.0, now - interval), now)
    previous = Window(max(0.0, now - 2 * interval), max(0.0, now - interval))
    return recent, previous
