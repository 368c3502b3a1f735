"""Tests for the WarehouseCostModel facade (fit / estimate / savings)."""

import pytest

from repro.common.errors import TelemetryError
from repro.common.simtime import DAY, HOUR, Window
from repro.costmodel.model import WarehouseCostModel
from repro.warehouse.api import CloudWarehouseClient
from repro.warehouse.types import WarehouseSize

from tests.conftest import drive, make_account, make_requests, make_template


def build_history(hours: float = 24.0, spacing: float = 900.0):
    """An account with a steady query history and its keebo client."""
    account, wh = make_account(
        seed=3, size=WarehouseSize.S, auto_suspend_seconds=300.0
    )
    template = make_template("steady", base_work_seconds=30.0, n_partitions=2)
    times = [10.0 + i * spacing for i in range(int(hours * HOUR / spacing))]
    drive(account, wh, make_requests(template, times), hours * HOUR)
    return account, wh, CloudWarehouseClient(account, actor="keebo")


class TestFitAndEstimate:
    def test_requires_fit(self):
        account, wh, client = build_history(2.0)
        model = WarehouseCostModel(client, wh)
        with pytest.raises(TelemetryError):
            model.estimate_without_keebo(Window(0, HOUR))

    def test_estimate_close_to_actual_same_config(self):
        account, wh, client = build_history(24.0)
        window = Window(0, 24 * HOUR)
        model = WarehouseCostModel(client, wh).fit(window)
        estimate = model.estimate_without_keebo(window)
        actual = model.actual_credits(window)
        assert estimate.credits == pytest.approx(actual, rel=0.15)

    def test_savings_near_zero_without_optimizer(self):
        account, wh, client = build_history(24.0)
        window = Window(0, 24 * HOUR)
        model = WarehouseCostModel(client, wh).fit(window)
        savings = model.estimate_savings(window)
        assert abs(savings.savings_fraction) < 0.15

    def test_savings_positive_after_keebo_suspend_cut(self):
        account, wh, client = build_history(24.0)
        # Keebo tightens the suspend interval at t=24h; run 24 more hours.
        client.alter_warehouse(wh, auto_suspend_seconds=60.0)
        template = make_template("steady", base_work_seconds=30.0, n_partitions=2)
        times = [24 * HOUR + 10.0 + i * 900.0 for i in range(96)]
        drive(account, wh, make_requests(template, times), 48 * HOUR)
        model = WarehouseCostModel(client, wh).fit(Window(0, 24 * HOUR))
        savings = model.estimate_savings(Window(24 * HOUR, 48 * HOUR))
        # Original 300s suspend vs actual 60s: the what-if should bill more.
        assert savings.savings_credits > 0
        assert savings.savings_fraction > 0.1

    def test_what_if_bigger_size_costs_more_here(self):
        account, wh, client = build_history(24.0)
        window = Window(0, 24 * HOUR)
        model = WarehouseCostModel(client, wh).fit(window)
        base = model.estimate_cost(window, client.current_config(wh))
        big = model.estimate_cost(
            window, client.current_config(wh).with_changes(size=WarehouseSize.L)
        )
        assert big.credits > base.credits


class TestActionImpact:
    """What-ifs between two configurations, replayed from one snapshot."""

    def test_downsize_predicts_slower_cheaper_or_equal(self):
        account, wh, client = build_history(24.0)
        window = Window(0, 24 * HOUR)
        model = WarehouseCostModel(client, wh).fit(window)
        current = client.current_config(wh)
        snapshot = model.snapshot(window)
        base = snapshot.cost(current)
        small = snapshot.cost(current.with_changes(size=WarehouseSize.XS))
        assert small.avg_latency / base.avg_latency > 1.0

    def test_upsize_predicts_faster(self):
        account, wh, client = build_history(24.0)
        window = Window(0, 24 * HOUR)
        model = WarehouseCostModel(client, wh).fit(window)
        current = client.current_config(wh)
        snapshot = model.snapshot(window)
        base = snapshot.cost(current)
        big = snapshot.cost(current.with_changes(size=WarehouseSize.L))
        assert big.avg_latency / base.avg_latency < 1.0

    def test_identity_impact_is_neutral(self):
        account, wh, client = build_history(12.0)
        window = Window(0, 12 * HOUR)
        model = WarehouseCostModel(client, wh).fit(window)
        current = client.current_config(wh)
        snapshot = model.snapshot(window)
        base = snapshot.cost(current)
        same = snapshot.cost(current)
        assert same.credits - base.credits == pytest.approx(0.0, abs=1e-9)
        assert same.avg_latency / base.avg_latency == pytest.approx(1.0)


class TestSavingsEstimate:
    def test_fraction_zero_when_baseline_zero(self):
        from repro.costmodel.model import SavingsEstimate

        estimate = SavingsEstimate(Window(0, 1), 0.0, 0.0)
        assert estimate.savings_fraction == 0.0

    def test_fraction_computation(self):
        from repro.costmodel.model import SavingsEstimate

        estimate = SavingsEstimate(Window(0, 1), 100.0, 60.0)
        assert estimate.savings_credits == 40.0
        assert estimate.savings_fraction == pytest.approx(0.4)
