"""Unit tests for sim-time metric series: buckets, aggregates, export."""

import json

import pytest

from repro.obs import (
    DEFAULT_BUCKET_SECONDS,
    MetricSeries,
    MetricsRegistry,
    ObservabilityError,
    SeriesRegistry,
)


class TestBucketing:
    def test_values_land_in_their_time_bucket(self):
        s = MetricSeries("repro.test.depth", "gauge", bucket_seconds=100.0)
        s.record(0.0, 1.0)
        s.record(99.9, 2.0)
        s.record(100.0, 3.0)
        assert s.points("count") == [(0, 2.0), (1, 1.0)]

    def test_bucket_boundaries(self):
        s = MetricSeries("repro.test.depth", "gauge", bucket_seconds=300.0)
        assert s.bucket_start(2) == 600.0
        assert s.bucket_end(2) == 900.0

    def test_default_bucket_width(self):
        s = MetricSeries("repro.test.depth", "gauge")
        assert s.bucket_seconds == DEFAULT_BUCKET_SECONDS == 300.0

    def test_nan_rejected(self):
        s = MetricSeries("repro.test.depth", "gauge")
        with pytest.raises(ObservabilityError):
            s.record(0.0, float("nan"))
        with pytest.raises(ObservabilityError):
            s.record(float("nan"), 1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_bucket_width_rejected(self, bad):
        with pytest.raises(ObservabilityError):
            MetricSeries("repro.test.depth", "gauge", bucket_seconds=bad)


class TestAggregates:
    def build(self):
        s = MetricSeries("repro.test.depth", "gauge", bucket_seconds=100.0)
        for t, v in [(0.0, 4.0), (50.0, 2.0), (99.0, 6.0)]:
            s.record(t, v)
        return s

    def test_last_min_max(self):
        s = self.build()
        assert s.points("last") == [(0, 6.0)]
        assert s.points("min") == [(0, 2.0)]
        assert s.points("max") == [(0, 6.0)]

    def test_sum_count_mean_rate(self):
        s = self.build()
        assert s.points("sum") == [(0, 12.0)]
        assert s.points("count") == [(0, 3.0)]
        assert s.points("mean") == [(0, 4.0)]
        assert s.points("rate") == [(0, 0.12)]

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ObservabilityError):
            self.build().points("p99")

    def test_points_are_index_sorted_regardless_of_emission_order(self):
        s = MetricSeries("repro.test.depth", "gauge", bucket_seconds=100.0)
        s.record(500.0, 1.0)
        s.record(0.0, 2.0)
        assert [i for i, _ in s.points()] == [0, 5]


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        reg = SeriesRegistry()
        assert reg.series("repro.test.a", "counter") is reg.series("repro.test.a", "counter")

    def test_kind_mismatch_rejected(self):
        reg = SeriesRegistry()
        reg.series("repro.test.a", "counter")
        with pytest.raises(ObservabilityError):
            reg.series("repro.test.a", "gauge")

    def test_invalid_name_rejected(self):
        with pytest.raises(ObservabilityError):
            SeriesRegistry().series("NotDotted", "gauge")

    def test_empty_series_excluded_from_snapshot(self):
        reg = SeriesRegistry()
        reg.series("repro.test.empty", "gauge")
        reg.series("repro.test.full", "gauge").record(0.0, 1.0)
        assert list(reg.snapshot()) == ["repro.test.full"]

    def test_snapshot_round_trips_through_from_snapshot(self):
        reg = SeriesRegistry(bucket_seconds=60.0)
        reg.series("repro.test.a", "counter").record(10.0, 2.0)
        reg.series("repro.test.a", "counter").record(70.0, 3.0)
        reg.series("repro.test.b", "gauge").record(5.0, -1.0)
        rebuilt = SeriesRegistry.from_snapshot(json.loads(reg.to_json()))
        assert rebuilt.to_json() == reg.to_json()
        assert rebuilt.get("repro.test.a").points("sum") == [(0, 2.0), (1, 3.0)]
        # Series JSON comes from outside the program: names are checked,
        # and every series must share the first one's bucket width.
        snapshot = json.loads(reg.to_json())
        with pytest.raises(ObservabilityError, match="invalid metric name"):
            SeriesRegistry.from_snapshot({"NotDotted": snapshot["repro.test.a"]})
        mixed = dict(snapshot)
        mixed["repro.test.c"] = dict(snapshot["repro.test.b"], bucket_seconds=300.0)
        with pytest.raises(ObservabilityError, match="bucket width"):
            SeriesRegistry.from_snapshot(mixed)

    def test_from_empty_snapshot(self):
        assert len(SeriesRegistry.from_snapshot({})) == 0

    def test_to_json_is_byte_stable(self):
        def build():
            reg = SeriesRegistry()
            reg.series("repro.test.b", "gauge").record(301.0, 1.5)
            reg.series("repro.test.a", "counter").record(0.0, 1.0)
            return reg.to_json()

        assert build() == build()


class TestMetricsIntegration:
    """Metrics recorded with a `time=` ride into the attached series."""

    def build(self):
        series = SeriesRegistry(bucket_seconds=100.0)
        return MetricsRegistry(series=series), series

    def test_counter_increments_feed_bucket_sums(self):
        metrics, series = self.build()
        c = metrics.counter("repro.test.events")
        c.inc(2.0, time=10.0)
        c.inc(3.0, time=150.0)
        assert series.get("repro.test.events").points("sum") == [(0, 2.0), (1, 3.0)]

    def test_untimed_recordings_skip_the_series(self):
        metrics, series = self.build()
        metrics.counter("repro.test.events").inc(5.0)
        assert len(series.get("repro.test.events")) == 0

    def test_gauge_and_histogram_record_levels(self):
        metrics, series = self.build()
        metrics.gauge("repro.test.depth").set(7.0, time=10.0)
        metrics.histogram("repro.test.lat", (1.0,)).observe(0.5, time=20.0)
        assert series.get("repro.test.depth").points("last") == [(0, 7.0)]
        assert series.get("repro.test.lat").points("count") == [(0, 1.0)]

    def test_registry_without_series_still_works(self):
        c = MetricsRegistry().counter("repro.test.events")
        c.inc(1.0, time=5.0)  # no series attached: silently a plain inc
        assert c.value == 1.0
