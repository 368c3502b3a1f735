"""The three end-to-end workloads: build, run, fingerprint and check.

Each workload is one whole run of a §7 protocol through the public runner
and service APIs, deterministic from its seed.  :func:`build` constructs
its scenarios and :func:`run` fills an :class:`Outcome` with the timings,
the work fingerprint, the fidelity numbers and every broken check.  Nothing here touches ``src/``;
the only interposition is a per-instance wrapper around
``Scenario.schedule`` that times workload generation and enqueueing, which
counts as set-up, not as run time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: Default seed per workload (the scenario factories' own defaults).
DEFAULT_SEEDS = {"customer_only": 500, "adhoc_before_after": 401, "chaos_durable": 132}
WORKLOADS = tuple(DEFAULT_SEEDS)

#: Simulated horizon of ``customer_only`` (Figure 5 itself uses 4 days).
CUSTOMER_ONLY_DAYS = 14
#: Simulated horizon of ``chaos_durable`` (``flaky_api`` itself uses 3 days).
CHAOS_DAYS = 6


@dataclass
class Outcome:
    """What one run did, how long it took, and whether it was right."""

    schedule_ns: int = 0
    protocol_ns: int = 0
    requests: int = 0
    #: Deterministic work counts plus ``digest`` (a hash of the result).
    fingerprint: dict = field(default_factory=dict)
    #: Reproduction fidelity: savings, p99 change, cost-model error.
    fidelity: dict = field(default_factory=dict)
    #: Run-level counts that are not part of the fingerprint.
    extras: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


def _digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _timed_schedule(scenario, outcome: Outcome) -> None:
    """Shadow ``scenario.schedule`` so its host time lands in set-up."""
    original = scenario.schedule

    def schedule() -> int:
        start = time.perf_counter_ns()
        n = original()
        outcome.schedule_ns += time.perf_counter_ns() - start
        outcome.requests += n
        return n

    scenario.schedule = schedule


def _before_after_digest(result) -> dict:
    dashboard = result.dashboard
    attribution = result.attribution
    return {
        "days": dashboard.days,
        "daily_credits": dashboard.daily_credits,
        "daily_p99": dashboard.daily_p99,
        "keebo_active": dashboard.keebo_active,
        "decision_counts": dict(sorted(result.decision_counts.items())),
        "estimated_savings_fraction": result.estimated_savings_fraction,
        "guardrail_vetoes": result.guardrail_vetoes,
        "attribution": [
            attribution.n_decisions,
            attribution.n_sealed,
            attribution.attributed_credits,
            attribution.ledger_credits,
            attribution.conserved,
        ],
    }


def _optimizer_counts(optimizer, outcome: Outcome) -> None:
    agent = optimizer.agent
    outcome.fingerprint.update(
        {
            "optimizer.ticks": len(optimizer.decisions),
            "optimizer.retrains": len(optimizer.training_reports),
            "learning.train.env_steps": agent.env_steps,
            "learning.train.grad_steps": agent.train_steps,
        }
    )
    outcome.extras.update(
        {
            "core.actuator.errors": optimizer.actuator.errors,
            "core.actuator.retries": optimizer.actuator.retries_scheduled,
        }
    )


def _before_after_fidelity(result, outcome: Outcome) -> None:
    outcome.fidelity.update(
        {
            "savings_frac": result.savings_fraction,
            "p99_change_frac": result.p99_change_fraction(),
        }
    )
    if result.attribution is None or not result.attribution.conserved:
        outcome.failures.append("attribution.conserved is false")


# ------------------------------------------------------------------ builds
def build_customer_only(seed: int):
    from repro.experiments.scenarios import fig5_scenarios

    scenarios = fig5_scenarios(seed=seed)
    for scenario in scenarios:
        scenario.total_days = CUSTOMER_ONLY_DAYS
    return scenarios


def build_adhoc_before_after(seed: int):
    from repro.experiments.scenarios import fig4a_scenario

    return [fig4a_scenario(seed=seed)]


def build_chaos_durable(seed: int):
    from repro.common.simtime import DAY, Window
    from repro.experiments.scenarios import flaky_api_scenario
    from repro.faults import FaultPlan

    scenario = flaky_api_scenario(seed=seed)
    scenario.total_days = CHAOS_DAYS
    # The factory arms its faults up to its own 3-day horizon; stretch every
    # window to the longer run so the write path stays flaky throughout.
    plan = scenario.fault_plan
    scenario.fault_plan = FaultPlan(
        name=plan.name,
        specs=tuple(
            dataclasses.replace(spec, window=Window(spec.window.start, CHAOS_DAYS * DAY))
            for spec in plan.specs
        ),
    )
    scenario.optimizer_config.live_ledger = True
    return [scenario]


# -------------------------------------------------------------------- runs
def run_customer_only(scenarios, outcome: Outcome, scratch: Path) -> None:
    from repro.experiments.runner import run_cost_model_accuracy

    rows = run_cost_model_accuracy(scenarios, workers=0)
    errors = [row.relative_error for row in rows]
    if len(rows) != len(scenarios) or not all(math.isfinite(e) for e in errors):
        outcome.failures.append("cost-model rows missing or not finite")
    if not all(row.actual_credits > 0 for row in rows):
        outcome.failures.append("a warehouse billed no credits")
    outcome.fidelity["costmodel_err"] = sum(errors) / len(errors)
    outcome.fingerprint["digest"] = _digest(
        [[r.warehouse, r.actual_credits, r.estimated_credits] for r in rows]
    )


def run_adhoc_before_after(scenarios, outcome: Outcome, scratch: Path) -> None:
    from repro.experiments.runner import run_before_after

    (scenario,) = scenarios
    result, optimizer = run_before_after(scenario)
    _before_after_fidelity(result, outcome)
    _optimizer_counts(optimizer, outcome)
    outcome.fingerprint["digest"] = _digest(_before_after_digest(result))


def run_chaos_durable(scenarios, outcome: Outcome, scratch: Path) -> None:
    """The §7.1 protocol under faults, observed, live-ledgered, checkpointed.

    ``run_chaos`` builds its own service, so this mirrors
    ``run_before_after`` step for step and adds the two service calls it
    has no hook for: an observation session and ``enable_checkpoints``.
    """
    from repro import obs
    from repro.common.simtime import Window
    from repro.core.optimizer import KeeboService
    from repro.experiments.runner import BeforeAfterResult
    from repro.faults import FaultingWarehouseClient
    from repro.portal.dashboards import savings_dashboard
    from repro.warehouse.api import CloudWarehouseClient

    (scenario,) = scenarios
    plan = scenario.fault_plan
    manifest = scenario.manifest()
    checkpoints = Path(tempfile.mkdtemp(prefix="ckpt-", dir=scratch))
    try:
        with obs.observed(manifest=manifest) as rec:
            scenario.schedule()
            account = scenario.account
            account.run_until(scenario.keebo_start)
            service = KeeboService(
                account, client_factory=lambda acct: FaultingWarehouseClient(acct, plan)
            )
            optimizer = service.onboard_warehouse(
                scenario.warehouse,
                slider=scenario.slider,
                constraints=scenario.constraints,
                config=scenario.optimizer_config,
            )
            service.enable_checkpoints(
                checkpoints,
                scenario.optimizer_config.decision_interval,
                config_hash=manifest.config_hash,
            )
            account.run_until(scenario.horizon)
            dashboard = savings_dashboard(
                CloudWarehouseClient(account),
                scenario.warehouse,
                Window(0.0, scenario.horizon),
                scenario.keebo_start,
            )
            estimate = optimizer.estimate_savings(
                Window(scenario.keebo_start, scenario.horizon)
            )
            optimizer.shutdown()
            result = BeforeAfterResult(
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
    finally:
        shutil.rmtree(checkpoints, ignore_errors=True)

    _before_after_fidelity(result, outcome)
    _optimizer_counts(optimizer, outcome)
    injected = optimizer.client.total_injected()
    if injected == 0:
        outcome.failures.append("chaos_durable injected no faults")
    reconciliations = optimizer.live_ledger.reconciliations
    aligned = [entry for entry in reconciliations if entry.aligned]
    if not aligned:
        outcome.failures.append("live ledger never reconciled an aligned period")
    diverged = [entry.divergence for entry in aligned if entry.divergence != 0.0]
    if diverged:
        outcome.failures.append(f"live ledger diverged: {diverged[:3]}")
    metrics = rec.metrics.snapshot()
    snapshots = metrics.get("repro.durability.snapshots", {}).get("value", 0)
    outcome.fingerprint.update(
        {
            "durability.snapshots": int(snapshots),
            "obs.records": len(rec.sink),
            "faults.injected": injected,
        }
    )
    outcome.fingerprint["digest"] = _digest(
        {
            **_before_after_digest(result),
            "injected": dict(sorted(optimizer.client.injected.items())),
            "reconciliations": [[e.aligned, e.divergence] for e in reconciliations],
        }
    )


_BUILD: dict[str, Callable] = {
    "customer_only": build_customer_only,
    "adhoc_before_after": build_adhoc_before_after,
    "chaos_durable": build_chaos_durable,
}
_RUN: dict[str, Callable] = {
    "customer_only": run_customer_only,
    "adhoc_before_after": run_adhoc_before_after,
    "chaos_durable": run_chaos_durable,
}


def build(workload: str, seed: int, outcome: Outcome):
    """Construct the workload's scenarios, with ``schedule()`` timed into
    ``outcome``."""
    scenarios = _BUILD[workload](seed)
    for scenario in scenarios:
        _timed_schedule(scenario, outcome)
    return scenarios


def run(workload: str, scenarios, outcome: Outcome, scratch: Path) -> None:
    """Run the protocol; afterwards ``outcome`` holds every result field.

    A protocol that raises is recorded as a failure, not propagated, so the
    caller still reports the run.
    """
    start = time.perf_counter_ns()
    try:
        _RUN[workload](scenarios, outcome, scratch)
    except Exception as exc:  # a failed run is reported, not fatal
        traceback.print_exc()
        outcome.failures.append(f"raised {type(exc).__name__}: {exc}")
    outcome.protocol_ns = time.perf_counter_ns() - start


def count_program(scenarios, outcome: Outcome) -> None:
    """Add the counts the program keeps itself to the fingerprint.

    Read after the run, from the scenarios' own accounts (simulations the
    trainer builds for its episodes are not counted): events dispatched,
    events scheduled, and QUERY_HISTORY rows written.
    """
    accounts = list({id(s.account): s.account for s in scenarios}.values())
    sims = [account.sim for account in accounts]
    # ``Simulation`` numbers its events from an ``itertools.count``, whose
    # repr is ``count(<next number>)``: the number of events ever scheduled.
    scheduled = sum(int(repr(sim._seq)[len("count("):-1]) for sim in sims)
    written = sum(
        len(account.telemetry.query_history(warehouse, include_overhead=True))
        for account in accounts
        for warehouse in account.telemetry.warehouses()
    )
    outcome.fingerprint.update(
        {
            "warehouse.engine.events": sum(sim.processed_events for sim in sims),
            "warehouse.engine.scheduled": scheduled,
            "warehouse.telemetry.rows_written": written,
        }
    )
