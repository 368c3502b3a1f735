"""Tests for Snowflake-style billing semantics."""

import pytest

from repro.common.simtime import HOUR, Window
from repro.warehouse.billing import MINIMUM_BILLED_SECONDS, BillingMeter, UsageSegment
from repro.common.errors import WarehouseError
from repro.warehouse.types import WarehouseSize


class TestUsageSegment:
    def test_credits_pro_rated_per_second(self):
        seg = UsageSegment(1, WarehouseSize.XS, 0.0, 1800.0)  # 30 min at 1/hr
        assert seg.credits() == pytest.approx(0.5)

    def test_minimum_applies_to_fresh_start(self):
        seg = UsageSegment(1, WarehouseSize.XS, 0.0, 10.0, fresh_start=True)
        assert seg.billed_window().duration == MINIMUM_BILLED_SECONDS

    def test_minimum_skipped_for_continuation(self):
        seg = UsageSegment(1, WarehouseSize.XS, 0.0, 10.0, fresh_start=False)
        assert seg.billed_window().duration == 10.0

    def test_open_segment_has_no_billed_window(self):
        seg = UsageSegment(1, WarehouseSize.XS, 0.0)
        with pytest.raises(WarehouseError):
            seg.billed_window()

    def test_rate_scales_with_size(self):
        xs = UsageSegment(1, WarehouseSize.XS, 0.0, HOUR).credits()
        xl = UsageSegment(1, WarehouseSize.XL, 0.0, HOUR).credits()
        assert xl == 16 * xs


class TestBillingMeter:
    def test_open_close_cycle(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 0.0, WarehouseSize.S)
        seg = meter.close_segment(1, HOUR)
        assert seg.credits() == pytest.approx(2.0)

    def test_double_open_rejected(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 0.0, WarehouseSize.S)
        with pytest.raises(WarehouseError):
            meter.open_segment(1, 10.0, WarehouseSize.S)

    def test_close_unopened_rejected(self):
        with pytest.raises(WarehouseError):
            BillingMeter("WH").close_segment(1, 10.0)

    def test_close_before_open_rejected(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 100.0, WarehouseSize.S)
        with pytest.raises(WarehouseError):
            meter.close_segment(1, 50.0)

    def test_total_includes_open_segments_as_of(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 0.0, WarehouseSize.XS)
        assert meter.total_credits(as_of=HOUR) == pytest.approx(1.0)
        # Without as_of, open segments are not counted.
        assert meter.total_credits() == 0.0

    def test_reprice_changes_rate_without_new_minimum(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 0.0, WarehouseSize.XS)
        meter.reprice_segment(1, HOUR, WarehouseSize.S)
        meter.close_segment(1, 2 * HOUR)
        # 1 hour at 1 + 1 hour at 2.
        assert meter.total_credits() == pytest.approx(3.0)

    def test_reprice_short_continuation_has_no_minimum(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 0.0, WarehouseSize.XS)
        meter.reprice_segment(1, 120.0, WarehouseSize.S)
        meter.close_segment(1, 130.0)  # 10s continuation: no 60s minimum
        expected = 120 / HOUR * 1 + 10 / HOUR * 2
        assert meter.total_credits() == pytest.approx(expected)

    def test_minimum_charge_on_short_run(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 0.0, WarehouseSize.XS)
        meter.close_segment(1, 5.0)
        assert meter.total_credits() == pytest.approx(MINIMUM_BILLED_SECONDS / HOUR)

    def test_credits_in_window_clips(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 0.0, WarehouseSize.XS)
        meter.close_segment(1, 2 * HOUR)
        assert meter.credits_in_window(Window(0, HOUR)) == pytest.approx(1.0)
        assert meter.credits_in_window(Window(HOUR, 2 * HOUR)) == pytest.approx(1.0)
        assert meter.credits_in_window(Window(2 * HOUR, 3 * HOUR)) == 0.0

    def test_hourly_rollup_sums_to_window_credits(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 600.0, WarehouseSize.M)
        meter.close_segment(1, 3 * HOUR + 500.0)
        meter.open_segment(2, HOUR, WarehouseSize.M)
        meter.close_segment(2, HOUR + 900)
        window = Window(0, 4 * HOUR)
        rollup = meter.hourly_rollup(window)
        assert sum(rollup.values()) == pytest.approx(meter.credits_in_window(window))
        assert set(rollup) == {0, 1, 2, 3}

    def test_multiple_clusters_bill_independently(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 0.0, WarehouseSize.XS)
        meter.open_segment(2, 0.0, WarehouseSize.XS)
        meter.close_segment(1, HOUR)
        meter.close_segment(2, HOUR / 2)
        assert meter.total_credits() == pytest.approx(1.5)

    def test_active_cluster_seconds(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 0.0, WarehouseSize.XS)
        meter.close_segment(1, 100.0)
        meter.open_segment(2, 50.0, WarehouseSize.XS)
        meter.close_segment(2, 150.0)
        assert meter.active_cluster_seconds(Window(0, 200)) == pytest.approx(200.0)


class TestSegmentsScanned:
    @staticmethod
    def _meter_with_history(days: int) -> tuple[BillingMeter, float]:
        """Two clusters cycling every 10 minutes for ``days`` days: short
        fresh starts (10 s, under the 60 s minimum) and 5-minute runs."""
        meter = BillingMeter("WH")
        t = 0.0
        while t < days * 24 * HOUR:
            meter.open_segment(1, t, WarehouseSize.XS)
            meter.open_segment(2, t + 30.0, WarehouseSize.S)
            meter.close_segment(1, t + 10.0)
            meter.close_segment(2, t + 330.0)
            t += 600.0
        return meter, t

    def test_trailing_hour_scan_does_not_grow_with_history(self):
        scanned = []
        for days in (1, 4):
            meter, now = self._meter_with_history(days)
            meter.open_segment(1, now, WarehouseSize.M)  # one open segment, valued at now + 60
            before = meter.segments_scanned
            meter.credits_in_window(Window(now - HOUR, now + 60.0))
            scanned.append(meter.segments_scanned - before)
        assert scanned[0] == scanned[1]
        # Six 10-minute cycles of two segments end inside the hour, plus the open one.
        assert scanned[0] == 2 * 6 + 1

    def test_counts_closed_visited_and_open_valued(self):
        meter = BillingMeter("WH")
        meter.open_segment(1, 0.0, WarehouseSize.XS)
        meter.close_segment(1, HOUR)
        meter.open_segment(2, 0.0, WarehouseSize.XS)
        assert meter.segments_scanned == 0
        meter.total_credits()  # open segment not valued without as_of
        assert meter.segments_scanned == 1
        meter.total_credits(as_of=2 * HOUR)
        assert meter.segments_scanned == 3
        meter.credits_in_window(Window(2 * HOUR, 3 * HOUR))  # closed one skipped
        assert meter.segments_scanned == 4
