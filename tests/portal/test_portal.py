"""Tests for KPI computation, dashboards and text rendering."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.simtime import DAY, HOUR, Window
from repro.portal.dashboards import SavingsDashboard, savings_dashboard
from repro.portal.kpis import daily_credits, daily_p99_latency, kpi_series, total_spend
from repro.portal.reports import render_actions, render_savings
from repro.warehouse.api import CloudWarehouseClient

from tests.conftest import drive, make_account, make_requests, make_template


def two_day_account():
    account, wh = make_account(seed=4)
    template = make_template("kpi", base_work_seconds=10.0)
    times = [i * 1800.0 for i in range(96)]  # every 30 min for 2 days
    drive(account, wh, make_requests(template, times), 2 * DAY)
    return account, wh, CloudWarehouseClient(account)


class TestKpis:
    def test_invalid_granularity(self):
        account, wh, client = two_day_account()
        with pytest.raises(ConfigurationError):
            kpi_series(client, wh, Window(0, DAY), "minutely")

    def test_daily_bucket_count(self):
        account, wh, client = two_day_account()
        buckets = kpi_series(client, wh, Window(0, 2 * DAY), "daily")
        assert len(buckets) == 2
        assert all(b.n_queries == 48 for b in buckets)

    def test_hourly_bucket_count(self):
        account, wh, client = two_day_account()
        buckets = kpi_series(client, wh, Window(0, DAY), "hourly")
        assert len(buckets) == 24

    def test_bucket_credits_sum_to_total(self):
        account, wh, client = two_day_account()
        window = Window(0, 2 * DAY)
        buckets = kpi_series(client, wh, window, "daily")
        assert sum(b.credits for b in buckets) == pytest.approx(
            total_spend(client, wh, window), rel=0.01
        )

    def test_cost_per_query(self):
        account, wh, client = two_day_account()
        bucket = kpi_series(client, wh, Window(0, DAY), "daily")[0]
        assert bucket.cost_per_query == pytest.approx(bucket.credits / bucket.n_queries)

    def test_latency_stats_populated(self):
        account, wh, client = two_day_account()
        bucket = kpi_series(client, wh, Window(0, DAY), "daily")[0]
        assert bucket.avg_latency > 0
        assert bucket.p99_latency >= bucket.avg_latency

    def test_daily_series_helpers(self):
        account, wh, client = two_day_account()
        window = Window(0, 2 * DAY)
        assert len(daily_credits(client, wh, window)) == 2
        assert len(daily_p99_latency(client, wh, window)) == 2


class TestKpiEdgeCases:
    def test_empty_window_yields_no_buckets(self):
        account, wh, client = two_day_account()
        assert kpi_series(client, wh, Window(0, 0), "daily") == []
        assert total_spend(client, wh, Window(0, 0)) == 0.0

    def test_quiet_window_yields_zero_credit_buckets(self):
        account, wh, client = two_day_account()
        # The drive covers [0, 2 days); the third day saw no traffic at all.
        [bucket] = kpi_series(client, wh, Window(2 * DAY, 3 * DAY), "daily")
        assert bucket.n_queries == 0
        assert bucket.credits == 0.0
        assert bucket.cost_per_query == 0.0  # no division by zero
        assert bucket.avg_latency == 0.0
        assert bucket.p99_latency == 0.0

    def test_partial_trailing_bucket_is_truncated(self):
        account, wh, client = two_day_account()
        buckets = kpi_series(client, wh, Window(0, DAY + HOUR), "daily")
        assert len(buckets) == 2
        assert buckets[-1].window == Window(DAY, DAY + HOUR)


class TestSavingsDashboard:
    def test_split_by_keebo_start(self):
        account, wh, client = two_day_account()
        dashboard = savings_dashboard(client, wh, Window(0, 2 * DAY), keebo_enabled_at=DAY)
        assert dashboard.keebo_active == [False, True]
        assert dashboard.pre_keebo_daily_mean > 0
        assert dashboard.with_keebo_daily_mean > 0

    def test_savings_fraction(self):
        dashboard = SavingsDashboard(
            warehouse="WH",
            days=[0, 1],
            daily_credits=[10.0, 6.0],
            daily_p99=[5.0, 5.0],
            keebo_active=[False, True],
        )
        assert dashboard.savings_fraction == pytest.approx(0.4)

    def test_render_savings_text(self):
        dashboard = SavingsDashboard(
            warehouse="WH",
            days=[0, 1],
            daily_credits=[10.0, 6.0],
            daily_p99=[5.0, 4.0],
            keebo_active=[False, True],
        )
        text = render_savings(dashboard)
        assert "WH" in text
        assert "savings=40.0%" in text
        assert "#" in text and "=" in text  # pre vs keebo bars


class TestActionsRendering:
    def test_render_actions_empty(self):
        from repro.portal.dashboards import ActionsDashboard

        text = render_actions(ActionsDashboard(warehouse="WH", actions=[]))
        assert "no configuration changes" in text


class TestRecoveryReportRendering:
    RECOVERED = {
        "scenario": "smoke",
        "seed": 123,
        "kind": "crash_at_tick",
        "cadence_seconds": 7200.0,
        "crash_boundary": 3,
        "crashes": 1,
        "recovered": True,
        "recovery_error": "",
        "repairs": 0,
        "restore_events": 1,
        "ok": True,
        "byte_identical": True,
        "identical": {"ledger": True, "trace": True},
    }

    def test_recovered_run_renders_export_table(self):
        from repro.portal.reports import render_recovery

        text = render_recovery(self.RECOVERED)
        assert "Verdict: OK" in text
        assert "| ledger | yes |" in text
        assert "refusal" not in text

    def test_refused_run_renders_refusal_not_table(self):
        from repro.portal.reports import render_recovery

        refused = {
            **self.RECOVERED,
            "kind": "stale_snapshot",
            "recovered": False,
            "restore_events": 0,
            "recovery_error": "stale snapshot: basis ahead",
            "byte_identical": False,
            "identical": {},
        }
        text = render_recovery(refused)
        assert "Verdict: OK" in text  # refusing IS the pass for detection kinds
        assert "stale snapshot: basis ahead" in text
        assert "| ledger |" not in text

    def test_rendering_is_pure(self):
        from repro.portal.reports import render_recovery

        assert render_recovery(self.RECOVERED) == render_recovery(dict(self.RECOVERED))
