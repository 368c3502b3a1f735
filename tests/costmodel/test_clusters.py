"""Tests for the cluster-count predictor."""

import numpy as np
import pytest

from repro.costmodel.clusters import (
    MINI_WINDOW_SECONDS,
    ClusterCountPredictor,
    concurrency_profile,
)
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.queries import QueryRecord


def rec(start: float, dur: float, cluster: int = 1) -> QueryRecord:
    return QueryRecord(
        query_id=int(start),
        warehouse="WH",
        text_hash="x",
        template_hash="t",
        arrival_time=start,
        start_time=start,
        end_time=start + dur,
        execution_seconds=dur,
        cluster_number=cluster,
        completed=True,
    )


def predict(predictor, intervals, end, config):
    """The replay's prediction over ``intervals`` in ``[0, end)``."""
    profile = concurrency_profile(intervals, 0.0, end, MINI_WINDOW_SECONDS)
    return predictor.predict_from_concurrency(profile, config)


class TestConcurrencyProfile:
    def test_single_interval_full_window(self):
        profile = concurrency_profile([(0.0, 300.0)], 0.0, 300.0, 300.0)
        assert profile.tolist() == [1.0]

    def test_partial_coverage(self):
        profile = concurrency_profile([(0.0, 150.0)], 0.0, 300.0, 300.0)
        assert profile.tolist() == [0.5]

    def test_overlapping_intervals_sum(self):
        profile = concurrency_profile([(0, 300), (0, 300), (0, 150)], 0.0, 300.0, 300.0)
        assert profile.tolist() == [2.5]

    def test_empty(self):
        profile = concurrency_profile([], 0.0, 600.0, 300.0)
        assert profile.tolist() == [0.0, 0.0]

    def test_interval_spanning_windows(self):
        profile = concurrency_profile([(100.0, 500.0)], 0.0, 600.0, 300.0)
        assert profile.tolist() == [pytest.approx(200 / 300), pytest.approx(200 / 300)]


class TestPredictor:
    def test_fit_on_empty_history(self):
        predictor = ClusterCountPredictor().fit([], WarehouseConfig())
        assert predictor.fitted
        assert predictor.calibration == 1.0

    def test_calibration_learns_scale(self):
        # Concurrency says 1 cluster but telemetry observed 2: k ~ 2 (clipped).
        config = WarehouseConfig(max_clusters=4, max_concurrency=8)
        records = [rec(i * 400.0, 350.0, cluster=2) for i in range(20)]
        predictor = ClusterCountPredictor().fit(records, config)
        assert predictor.calibration > 1.5

    def test_calibration_disabled(self):
        config = WarehouseConfig(max_clusters=4, max_concurrency=8)
        records = [rec(i * 400.0, 350.0, cluster=2) for i in range(20)]
        predictor = ClusterCountPredictor(calibrate=False).fit(records, config)
        assert predictor.calibration == 1.0

    def test_predict_bounds(self):
        config = WarehouseConfig(max_clusters=3, max_concurrency=2)
        predictor = ClusterCountPredictor().fit([], config)
        # Demand for 10 concurrent queries on 2-slot clusters -> 5 clusters,
        # clipped to the configured max of 3.
        intervals = [(0.0, MINI_WINDOW_SECONDS)] * 10
        predicted = predict(predictor, intervals, MINI_WINDOW_SECONDS, config)
        assert predicted[0] == 3.0

    def test_predict_zero_where_inactive(self):
        config = WarehouseConfig(max_clusters=3)
        predictor = ClusterCountPredictor().fit([], config)
        predicted = predict(predictor, [(0.0, 100.0)], 2 * MINI_WINDOW_SECONDS, config)
        assert predicted[0] >= 1.0
        assert predicted[1] == 0.0

    def test_min_clusters_floor(self):
        config = WarehouseConfig(min_clusters=2, max_clusters=4)
        predictor = ClusterCountPredictor().fit([], config)
        predicted = predict(predictor, [(0.0, 100.0)], MINI_WINDOW_SECONDS, config)
        assert predicted[0] >= 2.0
