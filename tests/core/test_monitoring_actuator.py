"""Tests for the monitor (§4.4) and actuator (§4.5)."""

import pytest

from repro.common.simtime import HOUR, MINUTE
from repro.core.actuator import Actuator
from repro.core.monitoring import Monitor, RealTimeFeedback
from repro.core.sliders import SliderPosition, slider_params
from repro.learning.features import WorkloadBaseline
from repro.warehouse.api import CloudWarehouseClient
from repro.warehouse.types import WarehouseSize

from tests.conftest import drive, make_account, make_requests, make_template


def feedback(**kw) -> RealTimeFeedback:
    defaults = dict(
        time=0.0,
        queue_length=0,
        running_queries=0,
        recent_queries=10,
        recent_p99=5.0,
        latency_ratio=1.0,
        mean_queue_seconds=0.0,
        arrival_zscore=0.0,
        unseen_template_fraction=0.0,
        external_change=False,
        baseline_ratio_q99=1.3,
    )
    defaults.update(kw)
    return RealTimeFeedback(**defaults)


class TestBackoffLogic:
    def test_queueing_triggers_backoff(self):
        fb = feedback(queue_length=3, mean_queue_seconds=5.0)
        assert fb.needs_backoff(slider_params(SliderPosition.BALANCED))

    def test_latency_degradation_triggers(self):
        fb = feedback(latency_ratio=3.0)
        assert fb.needs_backoff(slider_params(SliderPosition.BALANCED))

    def test_small_sample_does_not_trigger(self):
        fb = feedback(latency_ratio=3.0, recent_queries=3)
        assert not fb.needs_backoff(slider_params(SliderPosition.BALANCED))

    def test_threshold_respects_baseline_volatility(self):
        # A workload whose p99 naturally swings 2.5x should not back off at 2x.
        fb = feedback(latency_ratio=2.0, baseline_ratio_q99=2.5)
        assert not fb.needs_backoff(slider_params(SliderPosition.BALANCED))

    def test_cost_slider_tolerates_more(self):
        fb = feedback(latency_ratio=2.0)
        assert fb.needs_backoff(slider_params(SliderPosition.BEST_PERFORMANCE))
        assert not fb.needs_backoff(slider_params(SliderPosition.LOWEST_COST))

    def test_spike_detection_threshold(self):
        fb = feedback(arrival_zscore=3.2)
        assert fb.spike_detected(slider_params(SliderPosition.BALANCED))
        assert not fb.spike_detected(slider_params(SliderPosition.LOWEST_COST))


class TestMonitor:
    def build(self, **account_kw):
        account, wh = make_account(**account_kw)
        client = CloudWarehouseClient(account, actor="keebo")
        template = make_template("m", base_work_seconds=5.0)
        drive(account, wh, make_requests(template, [60.0 * i for i in range(30)]), HOUR)
        records = account.telemetry.query_history(wh)
        baseline = WorkloadBaseline.fit(records)
        monitor = Monitor(client, wh, baseline)
        monitor.learn_templates({r.template_hash for r in records})
        return account, wh, client, monitor

    def test_snapshot_reports_recent_traffic(self):
        account, wh, client, monitor = self.build()
        snap = monitor.snapshot(HOUR / 2)
        assert snap.recent_queries > 0
        assert snap.recent_p99 > 0

    def test_external_change_detection(self):
        account, wh, client, monitor = self.build()
        monitor.set_expected_config(client.current_config(wh))
        assert not monitor.snapshot(HOUR).external_change
        # A customer (not keebo) alters the warehouse.
        CloudWarehouseClient(account, actor="customer").alter_warehouse(
            wh, size=WarehouseSize.XL
        )
        assert monitor.snapshot(HOUR).external_change

    def test_keebo_changes_not_flagged(self):
        account, wh, client, monitor = self.build()
        client.alter_warehouse(wh, size=WarehouseSize.XL)
        monitor.set_expected_config(client.current_config(wh))
        assert not monitor.snapshot(HOUR).external_change

    def test_unseen_templates_flagged(self):
        account, wh, client, monitor = self.build()
        novel = make_template("novel", base_work_seconds=2.0)
        drive(account, wh, make_requests(novel, [HOUR + 10.0]), HOUR + MINUTE)
        snap = monitor.snapshot(HOUR + MINUTE)
        assert snap.unseen_template_fraction > 0

    def test_zscore_zero_on_expected_traffic(self):
        account, wh, client, monitor = self.build()
        snap = monitor.snapshot(HOUR / 2)
        assert abs(snap.arrival_zscore) < 3.0

    def test_zero_baseline_p99_reads_as_no_degradation(self):
        # A baseline fitted on an idle onboarding window can carry p99 = 0;
        # the snapshot must report ratio 0.0 ("no baseline signal"), not
        # divide by zero.
        account, wh = make_account()
        client = CloudWarehouseClient(account, actor="keebo")
        template = make_template("m", base_work_seconds=5.0)
        drive(account, wh, make_requests(template, [60.0 * i for i in range(5)]), HOUR)
        monitor = Monitor(client, wh, WorkloadBaseline(p99_latency=0.0))
        snap = monitor.snapshot(600.0)  # lookback window covers the traffic
        assert snap.recent_queries > 0  # traffic exists...
        assert snap.latency_ratio == 0.0  # ...but reads as not degraded


class TestActuator:
    def build(self):
        account, wh = make_account()
        client = CloudWarehouseClient(account, actor="keebo")
        monitor = Monitor(client, wh, WorkloadBaseline())
        return account, wh, client, Actuator(client, wh, monitor), monitor

    def test_apply_changes_config(self):
        account, wh, client, actuator, _ = self.build()
        target = client.current_config(wh).with_changes(size=WarehouseSize.L)
        entry = actuator.apply(target, reason="test")
        assert entry.succeeded and entry.changed
        assert client.current_config(wh) == target

    def test_noop_logged_but_not_changed(self):
        account, wh, client, actuator, _ = self.build()
        entry = actuator.apply(client.current_config(wh), reason="noop")
        assert entry.succeeded and not entry.changed
        assert actuator.actions_taken() == []

    def test_monitor_expectation_updated(self):
        account, wh, client, actuator, monitor = self.build()
        target = client.current_config(wh).with_changes(size=WarehouseSize.XL)
        actuator.apply(target, reason="test")
        assert monitor._expected_config == target

    def test_action_log_order(self):
        account, wh, client, actuator, _ = self.build()
        base = client.current_config(wh)
        actuator.apply(base.with_changes(size=WarehouseSize.M), "a")
        actuator.apply(base.with_changes(size=WarehouseSize.L), "b")
        reasons = [a.reason for a in actuator.actions_taken()]
        assert reasons == ["a", "b"]
