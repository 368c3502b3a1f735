"""Canonical experiment scenarios — one builder per paper figure/claim.

Each scenario wires an account, a warehouse with the *customer's* (typically
suboptimal) configuration, and a seeded workload; the runner then drives the
before/after protocol of §7.1 or the specialized protocols of §7.2-§7.4.

Configuration choices mirror the paper's narrative:

* Figure 4a's warehouse serves unpredictable ad-hoc analysts on an oversized
  warehouse with a long auto-suspend — the classic "provisioned for peak,
  pays for idle" customer where KWO finds large savings (paper: −59.7%).
* Figure 4b's warehouse runs a steady, predictable ETL+BI mix on a
  reasonably-sized warehouse — little idle waste, so savings are modest
  (paper: −13.2%) and come mostly from right-sizing and suspend tuning.
* Figure 5 samples four warehouses of different characters, including a
  rarely-used one whose tiny spend makes relative error large (paper: 20.9%).
* Figure 6's warehouse performs static hourly ETL (paper: "relatively
  static workloads ... for performing ETL tasks").
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, field
from typing import Callable

from repro.common.rng import RngRegistry
from repro.common.simtime import DAY, HOUR, Window
from repro.core.constraints import ConstraintSet
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.obs import RunManifest
from repro.core.optimizer import OptimizerConfig
from repro.core.sliders import SliderPosition
from repro.warehouse.account import Account
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.types import ScalingPolicy, WarehouseSize
from repro.workloads.adhoc import AdhocWorkload
from repro.workloads.base import Workload
from repro.workloads.bi import BiWorkload
from repro.workloads.etl import EtlWorkload
from repro.workloads.mixed import (
    make_bi_workload,
    make_predictable_workload,
    make_static_etl_workload,
    make_unpredictable_workload,
)


@dataclass
class Scenario:
    """A fully-wired simulated deployment, ready to run."""

    name: str
    account: Account
    warehouse: str
    workload: Workload
    total_days: int
    keebo_day: int | None  # None = Keebo never enabled
    slider: SliderPosition = SliderPosition.BALANCED
    optimizer_config: OptimizerConfig = field(default_factory=OptimizerConfig)
    constraints: ConstraintSet | None = None
    #: When set, the runner hands every optimizer a FaultingWarehouseClient
    #: injecting this plan (chaos protocol, docs/ROBUSTNESS.md).
    fault_plan: FaultPlan | None = None
    #: The picklable recipe that built this scenario (attached by the
    #: ``@scenario_factory`` decorator).  Worker processes rebuild the
    #: scenario from it — the Scenario object itself (live Account, heaps,
    #: RNG streams) never crosses a process boundary.  Excluded from
    #: equality/manifests: two scenarios are the same run regardless of
    #: which recipe produced them.
    spec: "ScenarioSpec | None" = field(default=None, compare=False, repr=False)

    @property
    def horizon(self) -> float:
        return self.total_days * DAY

    @property
    def keebo_start(self) -> float | None:
        return None if self.keebo_day is None else self.keebo_day * DAY

    def schedule(self) -> int:
        """Generate + schedule all arrivals; returns the request count."""
        requests = self.workload.generate(Window(0.0, self.horizon))
        self.account.schedule_workload(self.warehouse, requests)
        return len(requests)

    def manifest(self) -> RunManifest:
        """The provenance record for this run (docs/OBSERVABILITY.md).

        The config hash covers everything that shapes the run besides the
        seed: the warehouses' customer-set knobs, the optimizer config, the
        slider, the constraints and the protocol horizon.  Call before
        running — KWO alters warehouse configs once active.
        """
        configuration = {
            "warehouses": {
                name: wh.config for name, wh in sorted(self.account.warehouses.items())
            },
            "optimizer": self.optimizer_config,
            "constraints": self.constraints,
            "slider": int(self.slider),
            "total_days": self.total_days,
            "keebo_day": self.keebo_day,
            "fault_plan": self.fault_plan,
        }
        return RunManifest.create(
            scenario=self.name,
            seed=self.account.rngs.seed,
            config=configuration,
            slider=int(self.slider),
        )


# ---------------------------------------------------------------- specs
#: Factory registry: spec name -> builder.  Worker processes look builders
#: up here by name, so a spec is just (name, kwargs, index) — all picklable.
SCENARIO_FACTORIES: dict[str, Callable] = {}


def bound_factory(
    registry: dict[str, Callable], name: str, seed: int | None, what: str
) -> Callable[[], "Scenario"]:
    """A zero-argument builder for ``registry[name]``, seeded when ``seed``
    is given; ValueError (``unknown <what> 'name'``) for an unknown name."""
    factory = registry.get(name)
    if factory is None:
        raise ValueError(f"unknown {what} {name!r}")
    return factory if seed is None else functools.partial(factory, seed=seed)


@dataclass(frozen=True)
class ScenarioSpec:
    """A picklable scenario recipe: factory name + kwargs (+ list index).

    Determinism contract (docs/PERFORMANCE.md): factories are pure
    functions of their kwargs, so ``spec.build()`` in any process yields a
    scenario byte-equivalent to the one the original factory call returned.
    ``index`` selects one element of a list-returning factory (``fig5``,
    ``fleet``).
    """

    factory: str
    kwargs: tuple[tuple[str, object], ...] = ()
    index: int | None = None

    def build(self) -> Scenario:
        try:
            builder = SCENARIO_FACTORIES[self.factory]
        except KeyError:
            raise KeyError(
                f"unknown scenario factory {self.factory!r}; registered: "
                f"{sorted(SCENARIO_FACTORIES)}"
            ) from None
        built = builder(**dict(self.kwargs))
        if self.index is not None:
            built = built[self.index]
        if not isinstance(built, Scenario):
            raise TypeError(
                f"factory {self.factory!r} returned {type(built).__name__}; "
                "list-returning factories need an index"
            )
        return built

    def describe(self) -> str:
        """Human-readable recipe, for logs and worker error messages."""
        kwargs = ", ".join(f"{k}={v!r}" for k, v in self.kwargs)
        suffix = "" if self.index is None else f"[{self.index}]"
        return f"{self.factory}({kwargs}){suffix}"


def scenario_factory(name: str) -> Callable:
    """Register a scenario builder and stamp its products with their spec.

    The wrapped builder behaves identically; additionally every
    :class:`Scenario` it returns (directly or in a list) carries a
    :class:`ScenarioSpec` with the *fully-bound* call arguments, so the
    parallel layer can rebuild it in a worker process.
    """

    def decorate(fn: Callable) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            spec_kwargs = tuple(sorted(bound.arguments.items()))
            built = fn(*args, **kwargs)
            if isinstance(built, Scenario):
                built.spec = ScenarioSpec(name, spec_kwargs)
            else:
                for i, scenario in enumerate(built):
                    scenario.spec = ScenarioSpec(name, spec_kwargs, index=i)
            return built

        if name in SCENARIO_FACTORIES:
            raise ValueError(f"duplicate scenario factory {name!r}")
        SCENARIO_FACTORIES[name] = wrapper
        return wrapper

    return decorate


def _default_optimizer_config(**overrides) -> OptimizerConfig:
    base = dict(
        training_window=3 * DAY,
        onboarding_episodes=6,
        episode_length=1 * DAY,
        retrain_interval=24 * HOUR,
        retrain_episodes=1,
    )
    base.update(overrides)
    return OptimizerConfig(**base)


# --------------------------------------------------------------------- Fig 4
@scenario_factory("fig4a")
def fig4a_scenario(seed: int = 401) -> Scenario:
    """Unpredictable warehouse, heavily over-provisioned (paper: −59.7%)."""
    account = Account(name="fig4a", seed=seed)
    config = WarehouseConfig(
        size=WarehouseSize.XL,
        auto_suspend_seconds=3600.0,
        min_clusters=1,
        max_clusters=6,
        scaling_policy=ScalingPolicy.STANDARD,
    )
    account.create_warehouse("ADHOC_WH", config)
    workload = make_unpredictable_workload(RngRegistry(seed + 1))
    return Scenario(
        name="fig4a",
        account=account,
        warehouse="ADHOC_WH",
        workload=workload,
        total_days=14,
        keebo_day=7,
        # A fast-ramping deployment (the paper's Figure 4 customers show
        # near-full savings within the first optimized days).
        optimizer_config=_default_optimizer_config(confidence_tau=12 * HOUR),
    )


@scenario_factory("fig4b")
def fig4b_scenario(seed: int = 402) -> Scenario:
    """Predictable ETL+BI warehouse, already mostly well-tuned (paper: −13.2%).

    The customer runs a busy, steady pipeline on a warehouse with a fairly
    tight auto-suspend; idle waste is small, so KWO's headroom is modest.
    """
    account = Account(name="fig4b", seed=seed)
    config = WarehouseConfig(
        size=WarehouseSize.L,
        auto_suspend_seconds=600.0,
        min_clusters=1,
        max_clusters=2,
    )
    account.create_warehouse("ETL_WH", config)
    workload = make_predictable_workload(RngRegistry(seed + 1), intensity=1.8)
    return Scenario(
        name="fig4b",
        account=account,
        warehouse="ETL_WH",
        workload=workload,
        total_days=14,
        keebo_day=7,
        optimizer_config=_default_optimizer_config(),
    )


# --------------------------------------------------------------------- Fig 5
@scenario_factory("fig5")
def fig5_scenarios(seed: int = 500) -> list[Scenario]:
    """Four warehouses of different characters for cost-model accuracy.

    Warehouse3 is the rarely-used, low-spend one where relative error is
    expected to be largest (its absolute spend is tiny, so the 60 s minimum
    charges and resume jitter dominate).
    """
    scenarios = []
    # Warehouse1: busy mixed analytics.
    acct1 = Account(name="fig5-wh1", seed=seed + 1)
    acct1.create_warehouse(
        "Warehouse1", WarehouseConfig(size=WarehouseSize.L, auto_suspend_seconds=600, max_clusters=4)
    )
    scenarios.append(
        Scenario(
            "Warehouse1", acct1, "Warehouse1",
            make_unpredictable_workload(RngRegistry(seed + 11)),
            total_days=4, keebo_day=None,
        )
    )
    # Warehouse2: steady ETL.
    acct2 = Account(name="fig5-wh2", seed=seed + 2)
    acct2.create_warehouse(
        "Warehouse2", WarehouseConfig(size=WarehouseSize.M, auto_suspend_seconds=300, max_clusters=2)
    )
    scenarios.append(
        Scenario(
            "Warehouse2", acct2, "Warehouse2",
            make_static_etl_workload(RngRegistry(seed + 12), launches_per_day=12),
            total_days=4, keebo_day=None,
        )
    )
    # Warehouse3: provisioned but rarely used (low spend, worst rel. error).
    acct3 = Account(name="fig5-wh3", seed=seed + 3)
    acct3.create_warehouse(
        "Warehouse3", WarehouseConfig(size=WarehouseSize.S, auto_suspend_seconds=120, max_clusters=1)
    )
    rare = AdhocWorkload.synthesize(
        RngRegistry(seed + 13).stream("workload.adhoc"),
        n_templates=8,
        peak_rate_per_hour=1.0,
        base_rate_per_hour=0.05,
        spike_probability_per_day=0.0,
        month_end_boost=1.0,
    )
    scenarios.append(
        Scenario("Warehouse3", acct3, "Warehouse3", rare, total_days=4, keebo_day=None)
    )
    # Warehouse4: BI dashboards.
    acct4 = Account(name="fig5-wh4", seed=seed + 4)
    acct4.create_warehouse(
        "Warehouse4", WarehouseConfig(size=WarehouseSize.M, auto_suspend_seconds=600, max_clusters=3)
    )
    scenarios.append(
        Scenario(
            "Warehouse4", acct4, "Warehouse4",
            make_bi_workload(RngRegistry(seed + 14), intensity=1.5),
            total_days=4, keebo_day=None,
        )
    )
    return scenarios


# --------------------------------------------------------------------- Fig 6
@scenario_factory("fig6")
def fig6_scenario(seed: int = 600) -> Scenario:
    """Static hourly ETL warehouse with KWO active (overhead measurement)."""
    account = Account(name="fig6", seed=seed)
    config = WarehouseConfig(
        size=WarehouseSize.L, auto_suspend_seconds=900.0, max_clusters=2
    )
    account.create_warehouse("ETL_WH", config)
    workload = make_static_etl_workload(RngRegistry(seed + 1), launches_per_day=24)
    return Scenario(
        name="fig6",
        account=account,
        warehouse="ETL_WH",
        workload=workload,
        total_days=5,
        keebo_day=3,
        optimizer_config=_default_optimizer_config(),
    )


# --------------------------------------------------------------------- Fig 7
@scenario_factory("fig7")
def fig7_scenario(slider: SliderPosition, seed: int = 700) -> Scenario:
    """One slider sweep point: the same workload and warehouse, with KWO
    configured at ``slider`` (paper runs the same workload at all five)."""
    account = Account(name=f"fig7-s{int(slider)}", seed=seed)
    config = WarehouseConfig(
        size=WarehouseSize.L, auto_suspend_seconds=1800.0, max_clusters=3
    )
    account.create_warehouse("BI_WH", config)
    parts = [
        BiWorkload.synthesize(
            RngRegistry(seed + 1).stream("workload.bi"),
            n_dashboards=5,
            peak_refreshes_per_hour=5.0,
        ),
        EtlWorkload.synthesize(
            RngRegistry(seed + 2).stream("workload.etl"),
            n_pipelines=2,
            steps_per_pipeline=4,
            launches_per_day=4,
        ),
    ]
    from repro.workloads.base import CompositeWorkload

    return Scenario(
        name=f"fig7-slider{int(slider)}",
        account=account,
        warehouse="BI_WH",
        workload=CompositeWorkload(parts),
        total_days=7,
        keebo_day=3,
        slider=slider,
        optimizer_config=_default_optimizer_config(),
    )


# --------------------------------------------------------------------- smoke
@scenario_factory("smoke")
def smoke_scenario(seed: int = 123) -> Scenario:
    """A deliberately small traced-run scenario (seconds, not minutes).

    Used by ``repro.cli obs smoke``, the CI instrumentation guard, and the
    trace-determinism property test: two days of light static ETL with KWO
    onboarded after day one, tuned for the shortest run that still exercises
    onboarding, ticks, retraining windows, monitoring and replay.
    """
    account = Account(name="smoke", seed=seed)
    config = WarehouseConfig(
        size=WarehouseSize.M, auto_suspend_seconds=900.0, max_clusters=2
    )
    account.create_warehouse("SMOKE_WH", config)
    workload = make_static_etl_workload(RngRegistry(seed + 1), launches_per_day=10)
    return Scenario(
        name="smoke",
        account=account,
        warehouse="SMOKE_WH",
        workload=workload,
        total_days=2,
        keebo_day=1,
        optimizer_config=OptimizerConfig(
            decision_interval=1800.0,
            retrain_interval=12 * HOUR,
            training_window=1 * DAY,
            onboarding_episodes=2,
            retrain_episodes=1,
            episode_length=1 * DAY,
            report_interval=4 * HOUR,
        ),
    )


# --------------------------------------------------------------------- chaos
# Chaos scenarios arm their faults *after* onboarding completes: onboarding
# needs a working telemetry view by construction (no models exist yet to
# fall back on), while the steady-state loop must survive anything the plan
# throws at it (docs/ROBUSTNESS.md).


@scenario_factory("chaos_smoke")
def chaos_smoke_scenario(seed: int = 131) -> Scenario:
    """The smoke scenario under weather: ≥10% API failures, one blackout.

    Small enough for CI (two simulated days), yet it exercises the whole
    robustness surface: injected API errors on every operation, config
    rejections on writes, a three-hour telemetry blackout that must drive
    the optimizer through a full SAFE_MODE enter/exit cycle, an ingestion
    delay and stale billing reads.
    """
    base = smoke_scenario(seed=seed)
    # Two decision intervals of staleness before SAFE_MODE: one flaky read
    # is a HOLD, a sustained blackout escalates.
    base.optimizer_config.telemetry_staleness_threshold = 3600.0
    chaos_start = 1 * DAY + HOUR  # after onboarding at keebo_day=1
    plan = FaultPlan(
        name="chaos_smoke",
        specs=(
            FaultSpec(
                FaultKind.API_ERROR,
                probability=0.12,
                window=Window(chaos_start, 2 * DAY),
                detail="ambient API flakiness",
            ),
            FaultSpec(
                FaultKind.CONFIG_REJECT,
                operation="alter_warehouse",
                probability=0.2,
                window=Window(chaos_start, 2 * DAY),
            ),
            FaultSpec(
                FaultKind.TELEMETRY_GAP,
                window=Window(1 * DAY + 8 * HOUR, 1 * DAY + 11 * HOUR),
                detail="telemetry blackout",
            ),
            FaultSpec(
                FaultKind.TELEMETRY_DELAY,
                probability=0.2,
                window=Window(chaos_start, 2 * DAY),
                magnitude=900.0,
            ),
            FaultSpec(
                FaultKind.BILLING_STALE,
                probability=0.3,
                window=Window(chaos_start, 2 * DAY),
                magnitude=3600.0,
            ),
        ),
    )
    base.name = "chaos_smoke"
    base.account.name = "chaos_smoke"
    base.fault_plan = plan
    return base


@scenario_factory("flaky_api")
def flaky_api_scenario(seed: int = 132) -> Scenario:
    """Persistent vendor flakiness on the write path: retries and the
    circuit breaker carry the run (no blackout; telemetry stays up)."""
    base = smoke_scenario(seed=seed)
    base.total_days = 3
    base.optimizer_config.telemetry_staleness_threshold = 3600.0
    chaos_start = 1 * DAY + HOUR
    end = base.total_days * DAY
    plan = FaultPlan(
        name="flaky_api",
        specs=(
            FaultSpec(
                FaultKind.API_ERROR,
                operation="alter_warehouse",
                probability=0.25,
                window=Window(chaos_start, end),
            ),
            FaultSpec(
                FaultKind.API_TIMEOUT,
                operation="alter_warehouse",
                probability=0.15,
                window=Window(chaos_start, end),
                detail="ambiguous timeout: the write lands",
            ),
            FaultSpec(
                FaultKind.PARTIAL_WRITE,
                operation="alter_warehouse",
                probability=0.1,
                window=Window(chaos_start, end),
            ),
            FaultSpec(
                FaultKind.CONFIG_REJECT,
                operation="alter_warehouse",
                probability=0.1,
                window=Window(chaos_start, end),
            ),
        ),
    )
    base.name = "flaky_api"
    base.account.name = "flaky_api"
    base.fault_plan = plan
    return base


@scenario_factory("telemetry_blackout")
def telemetry_blackout_scenario(seed: int = 133) -> Scenario:
    """A long hard blackout plus lag on recovery: SAFE_MODE end to end."""
    base = smoke_scenario(seed=seed)
    base.total_days = 3
    base.optimizer_config.telemetry_staleness_threshold = 3600.0
    plan = FaultPlan(
        name="telemetry_blackout",
        specs=(
            FaultSpec(
                FaultKind.TELEMETRY_GAP,
                window=Window(1 * DAY + 6 * HOUR, 1 * DAY + 12 * HOUR),
                detail="six-hour blackout",
            ),
            FaultSpec(
                FaultKind.TELEMETRY_DELAY,
                window=Window(1 * DAY + 12 * HOUR, 1 * DAY + 14 * HOUR),
                magnitude=1200.0,
                detail="ingestion catches up",
            ),
            FaultSpec(
                FaultKind.TELEMETRY_DUPLICATE,
                probability=0.3,
                window=Window(1 * DAY + 12 * HOUR, 2 * DAY),
                detail="at-least-once replay",
            ),
            FaultSpec(
                FaultKind.BILLING_STALE,
                window=Window(1 * DAY + 6 * HOUR, 1 * DAY + 14 * HOUR),
                magnitude=7200.0,
            ),
        ),
    )
    base.name = "telemetry_blackout"
    base.account.name = "telemetry_blackout"
    base.fault_plan = plan
    return base


#: Scenario registry for ``repro.cli faults`` (name -> builder(seed)).
CHAOS_SCENARIOS = {
    "chaos_smoke": chaos_smoke_scenario,
    "flaky_api": flaky_api_scenario,
    "telemetry_blackout": telemetry_blackout_scenario,
}


# -------------------------------------------------------- onboarding / fleet
@scenario_factory("onboarding")
def onboarding_scenario(seed: int = 800, total_days: int = 12) -> Scenario:
    """Long horizon with periodic retraining: savings ramp vs hours (§1/§9)."""
    account = Account(name="onboarding", seed=seed)
    config = WarehouseConfig(
        size=WarehouseSize.XL, auto_suspend_seconds=3600.0, max_clusters=4
    )
    account.create_warehouse("MAIN_WH", config)
    workload = make_unpredictable_workload(RngRegistry(seed + 1), intensity=1.0)
    return Scenario(
        name="onboarding",
        account=account,
        warehouse="MAIN_WH",
        workload=workload,
        total_days=total_days,
        keebo_day=3,
        optimizer_config=_default_optimizer_config(
            retrain_interval=12 * HOUR, retrain_episodes=2
        ),
    )


@scenario_factory("fleet")
def fleet_scenarios(n_customers: int = 6, seed: int = 900) -> list[Scenario]:
    """A fleet of synthetic customers for the 20-70% savings-range claim."""
    registry = RngRegistry(seed)
    builders = [
        ("idle-heavy adhoc", WarehouseSize.XL, 3600.0, 4, make_unpredictable_workload),
        ("steady etl", WarehouseSize.L, 600.0, 2, make_predictable_workload),
        ("bi dashboards", WarehouseSize.L, 1800.0, 3, make_bi_workload),
        ("oversized adhoc", WarehouseSize.SIZE_2XL, 1800.0, 4, make_unpredictable_workload),
        ("hourly etl", WarehouseSize.M, 900.0, 2, lambda r: make_static_etl_workload(r, 18)),
        ("mixed", WarehouseSize.L, 1200.0, 3, make_predictable_workload),
    ]
    scenarios = []
    for i in range(n_customers):
        label, size, suspend, clusters, factory = builders[i % len(builders)]
        account = Account(name=f"customer{i}", seed=seed + 10 * i)
        account.create_warehouse(
            "WH",
            WarehouseConfig(size=size, auto_suspend_seconds=suspend, max_clusters=clusters),
        )
        scenarios.append(
            Scenario(
                name=f"customer{i} ({label})",
                account=account,
                warehouse="WH",
                workload=factory(registry.fork(f"customer{i}")),
                total_days=10,
                keebo_day=4,
                optimizer_config=_default_optimizer_config(),
            )
        )
    return scenarios
