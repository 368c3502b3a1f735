"""Savings attribution linear in run length.

Runs the ``smoke`` scenario for D and 2D simulated days of KWO and counts,
per savings report, the decision records whose governed window the
attribution ledger reads.  A ledger that scanned every decision ever
recorded on each report would read twice as many per report in the long
run; these counts are deterministic, so the gate holds at smoke scale.
"""

import pytest

from repro.core.optimizer import KeeboService
from repro.experiments.scenarios import smoke_scenario
from repro.obs.provenance import AttributionLedger, DecisionRecord

D = 1  # simulated days of KWO in the short run; the long run has 2D


def run(monkeypatch, days: int):
    scenario = smoke_scenario()
    scenario.total_days = 1 + days  # KWO starts at the end of day one
    scenario.schedule()
    account = scenario.account
    account.run_until(scenario.keebo_start)
    optimizer = KeeboService(account).onboard_warehouse(
        scenario.warehouse, config=scenario.optimizer_config
    )
    per_report: list[int] = []
    reporting = [False]
    window = DecisionRecord.window
    attribute = AttributionLedger.attribute

    def counted_window(record):
        if reporting[0]:
            per_report[-1] += 1
        return window.fget(record)

    def counted_attribute(self, *args):
        per_report.append(0)
        reporting[0] = True
        try:
            return attribute(self, *args)
        finally:
            reporting[0] = False

    monkeypatch.setattr(DecisionRecord, "window", property(counted_window))
    monkeypatch.setattr(AttributionLedger, "attribute", counted_attribute)
    account.run_until(scenario.horizon)
    optimizer.shutdown()
    monkeypatch.undo()
    return per_report, len(optimizer.provenance.records)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for days in (D, 2 * D):
        with pytest.MonkeyPatch.context() as monkeypatch:
            out[days] = run(monkeypatch, days)
    return out


def test_decisions_visited_per_report_stay_flat(runs):
    """Twice the history, the same reads per report.  (Scanning every
    record on each report, as the ledger once did, doubles the mean.)"""
    (short, n_short), (long, n_long) = runs[D], runs[2 * D]
    assert len(long) > 1.5 * len(short) > 0
    assert n_long > 1.5 * n_short
    mean_short = sum(short) / len(short)
    mean_long = sum(long) / len(long)
    assert 0 < mean_long <= 1.25 * mean_short, (mean_short, mean_long)
