"""Tests for the savings ledger (Algorithm 1's reporting step)."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.simtime import DAY, HOUR, Window
from repro.core.ledger import SavingsLedger
from repro.core.optimizer import OptimizerConfig, WarehouseOptimizer
from repro.costmodel.model import SavingsEstimate

from tests.conftest import make_account, make_requests, make_template


def estimate(start, end, without, with_):
    return SavingsEstimate(Window(start, end), without, with_)


class TestSavingsLedger:
    def test_report_and_totals(self):
        ledger = SavingsLedger("WH")
        ledger.report(estimate(0, 100, 10.0, 6.0), n_actions=2, n_backoffs=0)
        ledger.report(estimate(100, 200, 8.0, 9.0), n_actions=1, n_backoffs=1)
        assert ledger.total_savings_credits() == pytest.approx(4.0 - 1.0)

    def test_window_filter(self):
        ledger = SavingsLedger("WH")
        ledger.report(estimate(0, 100, 10.0, 6.0), 0, 0)
        ledger.report(estimate(100, 200, 10.0, 5.0), 0, 0)
        assert ledger.total_savings_credits(Window(0, 100)) == pytest.approx(4.0)
        assert ledger.total_savings_credits(Window(150, 500)) == pytest.approx(5.0)

    def test_overlapping_periods_rejected(self):
        ledger = SavingsLedger("WH")
        ledger.report(estimate(0, 100, 1.0, 0.5), 0, 0)
        with pytest.raises(ConfigurationError):
            ledger.report(estimate(50, 150, 1.0, 0.5), 0, 0)

    def test_series_shape(self):
        ledger = SavingsLedger("WH")
        ledger.report(estimate(0, 100, 10.0, 6.0), 0, 0)
        assert ledger.series() == [(100, pytest.approx(4.0))]


class TestOptimizerReporting:
    def test_loop_populates_ledger(self):
        account, wh = make_account(seed=23)
        template = make_template("led", base_work_seconds=10.0)
        times = [10.0 + i * 500.0 for i in range(200)]
        account.schedule_workload(wh, make_requests(template, times))
        account.run_until(12 * HOUR)
        optimizer = WarehouseOptimizer(
            account,
            wh,
            config=OptimizerConfig(
                training_window=12 * HOUR,
                onboarding_episodes=1,
                episode_length=6 * HOUR,
                retrain_episodes=0,
                report_interval=2 * HOUR,
                confidence_tau=0.0,
            ),
        )
        optimizer.onboard()
        account.run_until(22 * HOUR)
        # 10 hours of optimized run at 2h reporting -> ~5 periods.
        assert 3 <= len(optimizer.ledger.entries) <= 6
        windows = [e.window for e in optimizer.ledger.entries]
        for earlier, later in zip(windows, windows[1:]):
            assert later.start >= earlier.end - 1e-9
