"""A simulated customer account: warehouses + telemetry + overhead metering.

The account is the top-level simulator object a scenario builds.  It owns
the event loop, the telemetry store shared by all warehouses, and the
overhead meter that charges KWO's own telemetry/actuator traffic (the red
series of the paper's Figure 6).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.common.errors import UnknownWarehouseError, WarehouseError
from repro.common.rng import RngRegistry
from repro.common.simtime import Window, hour_index
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.engine import Simulation
from repro.warehouse.queries import QueryRequest
from repro.warehouse.telemetry import TelemetryStore
from repro.warehouse.warehouse import VirtualWarehouse


@dataclass(frozen=True)
class OverheadCharge:
    """One metered service operation (telemetry fetch, actuator call...)."""

    time: float
    credits: float
    kind: str
    warehouse: str


class OverheadMeter:
    """Tracks the (small) credits consumed by the optimization service itself.

    The paper's §7.3 stresses that KWO's overhead is negligible because
    telemetry reads avoid waking warehouses and batch multiple queries; we
    model each service operation as a fixed tiny cloud-services charge.
    """

    def __init__(self):
        self.charges: list[OverheadCharge] = []

    def record(self, time: float, credits: float, kind: str, warehouse: str = "") -> None:
        if credits < 0:
            raise WarehouseError("overhead credits must be non-negative")
        self.charges.append(OverheadCharge(time, credits, kind, warehouse))

    def total_credits(self, window: Window | None = None) -> float:
        return sum(
            c.credits for c in self.charges if window is None or window.contains(c.time)
        )

    def hourly_rollup(self, window: Window) -> dict[int, float]:
        rollup: dict[int, float] = {}
        for c in self.charges:
            if window.contains(c.time):
                h = hour_index(c.time)
                rollup[h] = rollup.get(h, 0.0) + c.credits
        return rollup


class Account:
    """One simulated CDW account (one "customer")."""

    def __init__(
        self,
        name: str = "acme",
        seed: int = 0,
        price_per_credit: float = 3.0,
        start_time: float = 0.0,
    ):
        self.name = name
        self.sim = Simulation(start_time)
        self.rngs = RngRegistry(seed)
        self.telemetry = TelemetryStore()
        self.overhead = OverheadMeter()
        self.price_per_credit = price_per_credit
        self.warehouses: dict[str, VirtualWarehouse] = {}

    # ------------------------------------------------------------ lifecycle
    def create_warehouse(
        self, name: str, config: WarehouseConfig | None = None, initially_suspended: bool = True
    ) -> VirtualWarehouse:
        if name in self.warehouses:
            raise WarehouseError(f"warehouse {name!r} already exists")
        wh = VirtualWarehouse(
            self.sim,
            name,
            config or WarehouseConfig(),
            self.telemetry,
            # One stream per warehouse; uniqueness is guaranteed by the
            # duplicate-name check above, not by a literal name.
            self.rngs.stream(f"warehouse.{name}"),  # repro-lint: disable=R003
            initially_suspended=initially_suspended,
        )
        self.warehouses[name] = wh
        return wh

    def warehouse(self, name: str) -> VirtualWarehouse:
        try:
            return self.warehouses[name]
        except KeyError:
            raise UnknownWarehouseError(name) from None

    # -------------------------------------------------------------- workload
    def schedule_workload(self, warehouse: str, requests: list[QueryRequest]) -> None:
        """Submit each request to ``warehouse`` at its arrival time.

        The requests reach the event loop as one :meth:`Simulation.feed`
        stream: they run in the order, and take the seq numbers, of one
        scheduled event per request in list order, but the heap holds only
        the next arrival.  ``requests`` need not be sorted; an arrival
        before now raises and schedules nothing.
        """
        wh = self.warehouse(warehouse)
        self.sim.feed(
            [request.arrival_time for request in requests],
            requests,
            functools.partial(_submit, wh),
        )

    def run_until(self, t: float) -> None:
        self.sim.run_until(t)

    # ------------------------------------------------------------- accounting
    def total_credits(self, window: Window | None = None, include_overhead: bool = True) -> float:
        """Account-wide billed credits (compute + service overhead)."""
        as_of = self.sim.now
        if window is None:
            total = sum(wh.meter.total_credits(as_of) for wh in self.warehouses.values())
        else:
            total = sum(
                wh.meter.credits_in_window(window, as_of) for wh in self.warehouses.values()
            )
        if include_overhead:
            total += self.overhead.total_credits(window)
        return total

    def total_spend_dollars(self, window: Window | None = None) -> float:
        return self.total_credits(window) * self.price_per_credit


def _submit(wh: VirtualWarehouse, request: QueryRequest) -> None:
    """Deliver one arrival.  ``submit`` is looked up per call, so a wrapper
    installed on :class:`VirtualWarehouse` after the workload was scheduled
    (a profiler's) still sees every query."""
    wh.submit(request)
