"""Dashboard data assembly: the figures a customer sees in the portal.

Each function returns the plain data series behind one portal view (the
same series the paper plots in its evaluation figures); rendering to text
lives in :mod:`repro.portal.reports`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.simtime import HOUR, Window, hour_index
from repro.core.actuator import AppliedAction
from repro.core.optimizer import WarehouseOptimizer
from repro.portal.kpis import kpi_series
from repro.warehouse.api import CloudWarehouseClient


@dataclass(frozen=True)
class SavingsDashboard:
    """Daily cost + latency with a with/without-Keebo split (Figure 4)."""

    warehouse: str
    days: list[int]
    daily_credits: list[float]
    daily_p99: list[float]
    keebo_active: list[bool]

    @property
    def pre_keebo_daily_mean(self) -> float:
        vals = [c for c, on in zip(self.daily_credits, self.keebo_active) if not on]
        return sum(vals) / len(vals) if vals else 0.0

    @property
    def with_keebo_daily_mean(self) -> float:
        vals = [c for c, on in zip(self.daily_credits, self.keebo_active) if on]
        return sum(vals) / len(vals) if vals else 0.0

    @property
    def savings_fraction(self) -> float:
        pre = self.pre_keebo_daily_mean
        return (pre - self.with_keebo_daily_mean) / pre if pre > 0 else 0.0


def savings_dashboard(
    client: CloudWarehouseClient,
    warehouse: str,
    window: Window,
    keebo_enabled_at: float,
) -> SavingsDashboard:
    buckets = kpi_series(client, warehouse, window, "daily")
    return SavingsDashboard(
        warehouse=warehouse,
        days=[int(b.window.start // (24 * HOUR)) for b in buckets],
        daily_credits=[b.credits for b in buckets],
        daily_p99=[b.p99_latency for b in buckets],
        keebo_active=[b.window.start >= keebo_enabled_at for b in buckets],
    )


@dataclass(frozen=True)
class OverheadDashboard:
    """Hourly actual usage vs KWO overhead vs estimated savings (Figure 6)."""

    warehouse: str
    hours: list[int]
    actual_credits: list[float]
    overhead_credits: list[float]
    estimated_savings: list[float]

    @property
    def total_overhead_fraction(self) -> float:
        actual = sum(self.actual_credits)
        return sum(self.overhead_credits) / actual if actual > 0 else 0.0


def overhead_dashboard(
    optimizer: WarehouseOptimizer, window: Window
) -> OverheadDashboard:
    """Figure 6's three hourly series for an optimized warehouse."""
    client = optimizer.client
    warehouse = optimizer.warehouse
    metering = client.metering_history(warehouse, window)
    overhead = optimizer.account.overhead.hourly_rollup(window)
    without = optimizer.cost_model.estimate_without_keebo(window)
    hours = sorted(range(hour_index(window.start), hour_index(window.end - 1e-9) + 1))
    actual = [metering.get(h, 0.0) for h in hours]
    est_without = [without.hourly_credits.get(h, 0.0) for h in hours]
    savings = [max(w - a, 0.0) for w, a in zip(est_without, actual)]
    return OverheadDashboard(
        warehouse=warehouse,
        hours=hours,
        actual_credits=actual,
        overhead_credits=[overhead.get(h, 0.0) for h in hours],
        estimated_savings=savings,
    )


@dataclass(frozen=True)
class ActionsDashboard:
    """Real-time visibility into the actions taken (§4.1 "full visibility")."""

    warehouse: str
    actions: list[AppliedAction] = field(default_factory=list)

    @property
    def n_changes(self) -> int:
        return sum(1 for a in self.actions if a.changed)


def actions_dashboard(optimizer: WarehouseOptimizer, window: Window) -> ActionsDashboard:
    actions = [
        a
        for a in (optimizer.actuator.log if optimizer.actuator else [])
        if window.contains(a.time)
    ]
    return ActionsDashboard(warehouse=optimizer.warehouse, actions=actions)
