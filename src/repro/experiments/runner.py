"""Experiment harness: runs scenarios under the protocols of §7.

Each protocol returns a result dataclass with exactly the rows/series the
corresponding paper figure reports, so benchmarks only format output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.simtime import DAY, HOUR, Window
from repro.common.stats import percentile
from repro.core.optimizer import KeeboService, WarehouseOptimizer
from repro.core.sliders import SliderPosition
from repro.costmodel.model import WarehouseCostModel
from repro.experiments.scenarios import Scenario, fig7_scenario
from repro.faults import FaultingWarehouseClient
from repro.obs import RunManifest
from repro.obs.provenance import AttributionSummary
from repro.parallel import StreamConfig, WorkerJob, register_protocol, run_jobs
from repro.portal.dashboards import (
    OverheadDashboard,
    SavingsDashboard,
    overhead_dashboard,
    savings_dashboard,
)
from repro.warehouse.api import CloudWarehouseClient


@dataclass
class BeforeAfterResult:
    """§7.1 protocol: pre-Keebo days vs with-Keebo days (Figure 4)."""

    scenario: str
    dashboard: SavingsDashboard
    decision_counts: dict[str, int]
    estimated_savings_fraction: float
    guardrail_vetoes: int
    manifest: RunManifest | None = None
    #: Decision-provenance rollup (savings attribution + calibration);
    #: ``None`` only for results built by code predating provenance v3.
    attribution: AttributionSummary | None = None

    @property
    def savings_fraction(self) -> float:
        return self.dashboard.savings_fraction

    @property
    def pre_daily(self) -> float:
        return self.dashboard.pre_keebo_daily_mean

    @property
    def post_daily(self) -> float:
        return self.dashboard.with_keebo_daily_mean

    def p99_change_fraction(self) -> float:
        """Relative p99 change, with-Keebo vs pre (negative = improved)."""
        pre = [
            p for p, on in zip(self.dashboard.daily_p99, self.dashboard.keebo_active) if not on
        ]
        post = [
            p for p, on in zip(self.dashboard.daily_p99, self.dashboard.keebo_active) if on
        ]
        if not pre or not post or np.mean(pre) == 0:
            return 0.0
        return float(np.mean(post) / np.mean(pre) - 1.0)


def onboard(scenario: Scenario) -> tuple[KeeboService, WarehouseOptimizer]:
    """Every §7 protocol up to onboarding: schedule the workload, run the
    pre-Keebo days and onboard the warehouse (through a fault-injecting
    client when the scenario carries a fault plan)."""
    scenario.schedule()
    account = scenario.account
    account.run_until(scenario.keebo_start)
    client_factory = None
    if scenario.fault_plan is not None:
        plan = scenario.fault_plan
        client_factory = lambda acct: FaultingWarehouseClient(acct, plan)  # noqa: E731
    service = KeeboService(account, client_factory=client_factory)
    optimizer = service.onboard_warehouse(
        scenario.warehouse,
        slider=scenario.slider,
        constraints=scenario.constraints,
        config=scenario.optimizer_config,
    )
    return service, optimizer


def before_after_result(
    scenario: Scenario, optimizer: WarehouseOptimizer, manifest: RunManifest
) -> BeforeAfterResult:
    """The §7.1 protocol's tail once the run reached the horizon: the
    savings dashboard, the post-onboarding estimate, shutdown and the
    result."""
    client = CloudWarehouseClient(scenario.account)
    dashboard = savings_dashboard(
        client, scenario.warehouse, Window(0.0, scenario.horizon), scenario.keebo_start
    )
    post_window = Window(scenario.keebo_start, scenario.horizon)
    estimate = optimizer.estimate_savings(post_window)
    # Shut down before summarizing: shutdown seals the trailing provenance
    # records, so the attribution rollup sees realized outcomes.
    optimizer.shutdown()
    return BeforeAfterResult(
        scenario=scenario.name,
        dashboard=dashboard,
        decision_counts=optimizer.decision_counts(),
        estimated_savings_fraction=estimate.savings_fraction,
        guardrail_vetoes=optimizer.smart_model.guardrail_vetoes,
        manifest=manifest,
        attribution=optimizer.provenance.summary(
            optimizer.ledger.total_savings_credits()
        ),
    )


def run_before_after(scenario: Scenario) -> tuple[BeforeAfterResult, WarehouseOptimizer]:
    """Run the §7.1 protocol on one scenario."""
    if scenario.keebo_day is None:
        raise ValueError("before/after protocol needs a keebo_day")
    manifest = scenario.manifest()
    _, optimizer = onboard(scenario)
    scenario.account.run_until(scenario.horizon)
    return before_after_result(scenario, optimizer, manifest), optimizer


@dataclass
class AccuracyRow:
    """One bar pair of Figure 5."""

    warehouse: str
    actual_credits: float
    estimated_credits: float
    manifest: RunManifest | None = None

    @property
    def relative_error(self) -> float:
        if self.actual_credits <= 0:
            return 0.0
        return abs(self.estimated_credits - self.actual_credits) / self.actual_credits


@register_protocol("accuracy.row")
def _accuracy_row(scenario: Scenario, train_days: float = 2.0) -> AccuracyRow:
    """One §7.2 measurement: fit on early telemetry, estimate the rest."""
    manifest = scenario.manifest()
    scenario.schedule()
    account = scenario.account
    account.run_until(scenario.horizon + HOUR)  # let trailing queries finish
    client = CloudWarehouseClient(account, actor="keebo")
    train = Window(0.0, train_days * DAY)
    evaluate = Window(train_days * DAY, scenario.horizon)
    model = WarehouseCostModel(client, scenario.warehouse).fit(train)
    config = client.current_config(scenario.warehouse)
    estimate = model.estimate_cost(evaluate, config)
    actual = client.credits_in_window(scenario.warehouse, evaluate)
    return AccuracyRow(scenario.name, actual, estimate.credits, manifest=manifest)


def run_cost_model_accuracy(
    scenarios: list[Scenario], train_days: float = 2.0, workers: int = 0
) -> list[AccuracyRow]:
    """§7.2 protocol: estimate costs from metadata alone vs actual billing.

    Each scenario runs *without* any optimizer; the cost model fits its
    parameter estimators on the first ``train_days`` of telemetry and then
    estimates the cost of the remaining days, which is compared to the
    credits the simulator actually billed for those days.
    """
    jobs = [
        WorkerJob(
            protocol="accuracy.row",
            scenario=scenario,
            kwargs=(("train_days", float(train_days)),),
        )
        for scenario in scenarios
    ]
    return run_jobs(jobs, workers=workers)


@dataclass
class OverheadResult:
    """§7.3 protocol output (Figure 6)."""

    dashboard: OverheadDashboard
    manifest: RunManifest | None = None

    @property
    def overhead_fraction(self) -> float:
        return self.dashboard.total_overhead_fraction

    def total_without_keebo_stability(self) -> float:
        """Coefficient of variation of hourly (actual + estimated savings).

        The paper observes this sum is "nearly identical over different
        hours" for the static ETL warehouse; a small CV confirms it.
        """
        totals = [
            a + s
            for a, s in zip(self.dashboard.actual_credits, self.dashboard.estimated_savings)
        ]
        active = [t for t in totals if t > 0]
        if len(active) < 2:
            return 0.0
        return float(np.std(active) / np.mean(active))


def run_overhead(scenario: Scenario) -> OverheadResult:
    """Run §7.3: KWO active, measure hourly actual/overhead/savings."""
    manifest = scenario.manifest()
    _, optimizer = onboard(scenario)
    scenario.account.run_until(scenario.horizon)
    measure = Window(scenario.keebo_start + DAY, scenario.horizon)
    dashboard = overhead_dashboard(optimizer, measure)
    optimizer.shutdown()
    return OverheadResult(dashboard, manifest=manifest)


@dataclass
class SliderSweepRow:
    """One bar+point of Figure 7."""

    slider: SliderPosition
    total_credits: float
    avg_latency: float
    p99_latency: float
    manifest: RunManifest | None = None


@register_protocol("slider.point")
def _slider_point(scenario: Scenario) -> SliderSweepRow:
    """One §7.4 measurement: run KWO at the scenario's slider position."""
    manifest = scenario.manifest()
    _, optimizer = onboard(scenario)
    account = scenario.account
    account.run_until(scenario.horizon)
    window = Window(scenario.keebo_start, scenario.horizon)
    client = CloudWarehouseClient(account)
    credits = client.credits_in_window(scenario.warehouse, window)
    records = client.query_history(scenario.warehouse, window)
    latencies = [r.total_seconds for r in records]
    row = SliderSweepRow(
        slider=scenario.slider,
        total_credits=credits,
        avg_latency=float(np.mean(latencies)) if latencies else 0.0,
        p99_latency=percentile(latencies, 99),
        manifest=manifest,
    )
    optimizer.shutdown()
    return row


def run_slider_sweep(seed: int = 700, workers: int = 0) -> list[SliderSweepRow]:
    """§7.4 protocol: same workload, five slider positions."""
    jobs = [
        WorkerJob(protocol="slider.point", scenario=fig7_scenario(position, seed=seed))
        for position in SliderPosition
    ]
    return run_jobs(jobs, workers=workers)


@dataclass
class OnboardingCurve:
    """§1/§9 claim: fraction of eventual savings reached vs hours onboard.

    ``savings_rate`` holds, for each measurement hour, the savings fraction
    over the trailing 24 hours (or since onboarding, if less) — a smoothed
    rate, since single-bucket fractions on a fresh deployment are dominated
    by workload noise.
    """

    hours: list[float]
    savings_rate: list[float]
    manifest: RunManifest | None = None

    @property
    def eventual_rate(self) -> float:
        """The steady-state savings rate: the mean of the last quarter."""
        if not self.savings_rate:
            return 0.0
        tail = self.savings_rate[-max(1, len(self.savings_rate) // 4):]
        return float(np.mean(tail))

    def hours_to_reach(self, fraction_of_final: float) -> float | None:
        """First sustained crossing of ``fraction_of_final × eventual``."""
        target = fraction_of_final * self.eventual_rate
        if target <= 0:
            return None
        for i, (h, s) in enumerate(zip(self.hours, self.savings_rate)):
            nxt = self.savings_rate[i + 1] if i + 1 < len(self.savings_rate) else s
            if s >= target and nxt >= target:
                return h
        return None


@register_protocol("onboarding.curve")
def _onboarding_curve(
    scenario: Scenario, bucket_hours: float = 4.0, trailing_hours: float = 24.0
) -> OnboardingCurve:
    manifest = scenario.manifest()
    _, optimizer = onboard(scenario)
    scenario.account.run_until(scenario.horizon)
    hours: list[float] = []
    rates: list[float] = []
    t = scenario.keebo_start + bucket_hours * HOUR
    while t <= scenario.horizon + 1e-9:
        trailing = Window(max(scenario.keebo_start, t - trailing_hours * HOUR), t)
        estimate = optimizer.estimate_savings(trailing)
        hours.append((t - scenario.keebo_start) / HOUR)
        rates.append(estimate.savings_fraction)
        t += bucket_hours * HOUR
    optimizer.shutdown()
    return OnboardingCurve(hours, rates, manifest=manifest)


def run_onboarding_curve(
    scenario: Scenario,
    bucket_hours: float = 4.0,
    trailing_hours: float = 24.0,
    workers: int = 0,
) -> OnboardingCurve:
    """Measure savings ramp-up after onboarding."""
    job = WorkerJob(
        protocol="onboarding.curve",
        scenario=scenario,
        kwargs=(
            ("bucket_hours", float(bucket_hours)),
            ("trailing_hours", float(trailing_hours)),
        ),
    )
    return run_jobs([job], workers=workers)[0]


@dataclass
class FleetResult:
    """Savings distribution across a fleet of synthetic customers."""

    rows: list[BeforeAfterResult] = field(default_factory=list)

    @property
    def savings_fractions(self) -> list[float]:
        return [r.savings_fraction for r in self.rows]

    @property
    def savings_range(self) -> tuple[float, float]:
        fractions = self.savings_fractions
        return (min(fractions), max(fractions)) if fractions else (0.0, 0.0)


@dataclass
class ChaosResult:
    """Chaos protocol output: the §7.1 result plus the fault ledger.

    ``injected`` counts what the fault plan actually fired (by kind);
    ``observed`` counts what the control loop *noticed and absorbed* —
    actuator errors/retries, breaker opens, degraded monitor snapshots,
    SAFE_MODE episodes.  A healthy robustness layer shows observed
    reactions commensurate with injections, and zero escaped exceptions
    (the run finishing at all is the first assertion).
    """

    result: BeforeAfterResult
    injected: dict[str, int]
    injected_total: int
    observed: dict[str, int]

    @property
    def savings_fraction(self) -> float:
        return self.result.savings_fraction

    def summary_lines(self) -> list[str]:
        lines = [
            f"chaos run {self.result.scenario!r}: "
            f"{self.injected_total} fault(s) injected",
            f"  savings_fraction: {self.savings_fraction:+.3f}",
            "  injected by kind:",
        ]
        if not self.injected:
            lines.append("    (none)")
        lines.extend(
            f"    {kind}: {count}" for kind, count in sorted(self.injected.items())
        )
        lines.append("  observed by the control loop:")
        lines.extend(
            f"    {key}: {value}" for key, value in sorted(self.observed.items())
        )
        attribution = self.result.attribution
        if attribution is not None:
            conserved = "conserved" if attribution.conserved else "VIOLATED"
            lines.append(
                f"  provenance: {attribution.n_decisions} decisions "
                f"({attribution.n_sealed} sealed), "
                f"attributed={attribution.attributed_credits:+.4f}cr "
                f"[{conserved}], "
                f"calibration mean |err|={attribution.mean_abs_error_credits:.4f}cr"
            )
        return lines


def run_chaos(scenario: Scenario) -> tuple[ChaosResult, WarehouseOptimizer]:
    """Run the before/after protocol under the scenario's fault plan and
    reconcile injected-vs-observed fault counts."""
    if scenario.fault_plan is None:
        raise ValueError("chaos protocol needs a scenario with a fault_plan")
    result, optimizer = run_before_after(scenario)
    client = optimizer.client
    if not isinstance(client, FaultingWarehouseClient):  # pragma: no cover
        raise TypeError("chaos run did not receive a FaultingWarehouseClient")
    observed = {
        "actuator_errors": optimizer.actuator.errors,
        "actuator_retries_scheduled": optimizer.actuator.retries_scheduled,
        "breaker_opens": optimizer.actuator.breaker.opens,
        "telemetry_failures": optimizer.monitor.telemetry_failures,
        "safe_mode_entries": optimizer.safe_mode_entries,
        "safe_mode_ticks": optimizer.decision_counts().get("safe_mode", 0),
    }
    chaos = ChaosResult(
        result=result,
        injected=dict(client.injected),
        injected_total=client.total_injected(),
        observed=observed,
    )
    return chaos, optimizer


@register_protocol("chaos.kill_worker")
def _chaos_kill_worker(scenario: Scenario, marker: str = "", exit_code: int = 137):
    """Kill the hosting worker process once (crash-resilience chaos).

    With a ``marker`` path: the first attempt creates the marker and dies
    via ``os._exit`` (no exception, no cleanup — exactly what an OOM kill
    looks like to the parent pool); the retry finds the marker and
    completes normally, returning the scenario name.  Without a marker
    the job dies on *every* attempt — deterministic poison, which the
    pool must quarantine rather than retry forever.
    """
    import os as _os
    import pathlib as _pathlib

    if marker:
        path = _pathlib.Path(marker)
        if path.exists():
            return scenario.name
        path.write_text("died once", encoding="utf-8")
    _os._exit(exit_code)


@register_protocol("before_after.row")
def _before_after_row(scenario: Scenario) -> BeforeAfterResult:
    """The §7.1 protocol, result row only (optimizers stay in-process)."""
    result, _ = run_before_after(scenario)
    return result


@register_protocol("chaos.row")
def _chaos_row(scenario: Scenario) -> ChaosResult:
    """The chaos protocol, result only (optimizers stay in-process)."""
    chaos, _ = run_chaos(scenario)
    return chaos


def run_fleet(
    scenarios: list[Scenario],
    workers: int = 0,
    stream: StreamConfig | None = None,
) -> FleetResult:
    """Run the §7.1 protocol across a fleet, optionally process-parallel.

    ``workers=0`` runs inline; ``workers>0`` fans scenarios out to that
    many worker processes.  Results (and, under an active observation
    session, the merged trace/metrics/series exports) are identical either
    way — see docs/PERFORMANCE.md for the determinism contract.  A
    :class:`~repro.parallel.StreamConfig` spools the workers' chunk streams
    through disk with campaign heartbeats instead of holding them in
    memory (docs/OBSERVABILITY.md §v4) — same bytes, O(chunk) memory.
    """
    jobs = [
        WorkerJob(protocol="before_after.row", scenario=scenario)
        for scenario in scenarios
    ]
    return FleetResult(rows=run_jobs(jobs, workers=workers, stream=stream))


def run_chaos_fleet(
    scenarios: list[Scenario],
    workers: int = 0,
    stream: StreamConfig | None = None,
) -> list[ChaosResult]:
    """Run the chaos protocol across a fleet of fault-plan scenarios."""
    jobs = [
        WorkerJob(protocol="chaos.row", scenario=scenario) for scenario in scenarios
    ]
    return run_jobs(jobs, workers=workers, stream=stream)
