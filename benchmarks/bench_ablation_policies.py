"""Ablation (§6/§8): KWO's data learning vs non-learning baselines.

Compares, on the same idle-heavy workload:

  * **static**       — the customer's configuration untouched (pre-Keebo);
  * **rule-of-thumb** — the "set auto-suspend to 60 s" blog-post advice §3
    dismisses ("no guarantees on optimal cost or performance");
  * **greedy**       — a reactive utilization-threshold resizer;
  * **kwo**          — the full smart model (DQN + cost-model guardrails +
    monitoring).

Expected shape: rule-of-thumb already beats static on idle-heavy workloads
(suspend tuning is the first-order lever), the greedy resizer is erratic,
and KWO matches or beats the best baseline on cost without the latency
damage the cache-blind baselines incur.
"""

import numpy as np

from repro.common.rng import RngRegistry
from repro.common.simtime import DAY, Window
from repro.common.stats import percentile
from repro.core.optimizer import KeeboService, OptimizerConfig
from repro.learning.baselines import (
    GreedyDownsizerPolicy,
    RuleOfThumbPolicy,
    StaticPolicy,
)
from repro.learning.features import WorkloadBaseline
from repro.learning.actions import ActionSpace
from repro.warehouse.account import Account
from repro.warehouse.api import CloudWarehouseClient
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.types import WarehouseSize
from repro.workloads.mixed import make_unpredictable_workload

from benchmarks.conftest import record_result, run_once

DAYS = 6
SWITCH = 3 * DAY


def _fresh_account():
    account = Account(seed=888)
    account.create_warehouse(
        "WH",
        WarehouseConfig(size=WarehouseSize.XL, auto_suspend_seconds=3600.0, max_clusters=4),
    )
    workload = make_unpredictable_workload(RngRegistry(889))
    account.schedule_workload("WH", workload.generate(Window(0, DAYS * DAY)))
    return account


def _measure(account) -> dict:
    window = Window(SWITCH, DAYS * DAY)
    credits = account.warehouse("WH").meter.credits_in_window(window, as_of=account.sim.now)
    records = account.telemetry.query_history("WH", window)
    latencies = [r.total_seconds for r in records]
    return {
        "credits": credits,
        "p99": percentile(latencies, 99),
        "avg": float(np.mean(latencies)) if latencies else 0.0,
    }


def _run_baseline(policy_name: str) -> dict:
    account = _fresh_account()
    account.run_until(SWITCH)
    client = CloudWarehouseClient(account, actor="keebo")
    records = client.query_history("WH", Window(0, SWITCH))
    baseline = WorkloadBaseline.fit(records)
    original = client.current_config("WH")
    space = ActionSpace(original)
    policies = {
        "static": StaticPolicy(),
        "rule-of-thumb": RuleOfThumbPolicy(),
        "greedy": GreedyDownsizerPolicy(baseline),
    }
    policy = policies[policy_name]

    def tick(now: float) -> None:
        recent = client.query_history("WH", Window(max(0.0, now - 900.0), now))
        info = client.describe_warehouse("WH")
        action = policy.decide(now, recent, info)
        target = space.apply(info.config, action)
        if target != info.config:
            client.alter_warehouse(
                "WH",
                size=target.size,
                auto_suspend_seconds=target.auto_suspend_seconds,
                min_clusters=target.min_clusters,
                max_clusters=target.max_clusters,
            )

    account.sim.add_controller(600.0, tick, start=SWITCH + 600.0)
    account.run_until(DAYS * DAY)
    return _measure(account)


def _run_kwo() -> dict:
    account = _fresh_account()
    account.run_until(SWITCH)
    service = KeeboService(account)
    service.onboard_warehouse(
        "WH",
        config=OptimizerConfig(
            training_window=3 * DAY,
            onboarding_episodes=6,
            episode_length=1 * DAY,
            retrain_episodes=0,
            confidence_tau=0.0,
        ),
    )
    account.run_until(DAYS * DAY)
    return _measure(account)


def test_policy_ablation(benchmark):
    def run_all():
        results = {name: _run_baseline(name) for name in ("static", "rule-of-thumb", "greedy")}
        results["kwo"] = _run_kwo()
        return results

    results = run_once(benchmark, run_all)
    lines = [f"{'policy':>14} {'credits':>9} {'avg lat':>8} {'p99':>8}"]
    for name, r in results.items():
        lines.append(f"{name:>14} {r['credits']:>9.1f} {r['avg']:>7.2f}s {r['p99']:>7.1f}s")
    record_result("ablation_policies", "\n".join(lines))

    static = results["static"]
    kwo = results["kwo"]
    # KWO clearly beats doing nothing on this idle-heavy workload...
    assert kwo["credits"] < 0.8 * static["credits"]
    # ... without wrecking tail latency relative to the untouched warehouse
    # (C4: performance over savings).
    assert kwo["p99"] < 1.3 * static["p99"]
    # The non-learning baselines can only buy savings with latency damage:
    # among policies that keep p99 within 1.3x of the untouched warehouse,
    # KWO is the cheapest (the Pareto argument of §7.4).
    latency_safe = {
        name: r for name, r in results.items() if r["p99"] < 1.3 * static["p99"]
    }
    assert min(latency_safe, key=lambda n: latency_safe[n]["credits"]) == "kwo"
    # And the baselines that undercut KWO's cost pay for it in tail latency.
    for name, r in results.items():
        if name != "kwo" and r["credits"] < kwo["credits"]:
            assert r["p99"] > 1.3 * kwo["p99"]
