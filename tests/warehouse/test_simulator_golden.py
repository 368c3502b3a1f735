"""Fixed-seed golden for the warehouse simulator.

A three-warehouse account runs for two simulated days: a multi-cluster
ad-hoc warehouse that scales out, a steady ETL warehouse and a BI
warehouse, plus a template whose partition list repeats names.  Mid-run the
ad-hoc warehouse is resized, its cluster bounds are altered and the BI
warehouse is suspended by hand.  Every QUERY_HISTORY row (each field's
``repr``), every billing segment, the warehouse events, the dispatched
event count and the event sequence counter are hashed into one digest.

The digest pins the simulator's behaviour byte for byte: a change that
reorders an event, moves a float by one ulp or picks another cluster
changes it.  Refactors of the query lifecycle must leave it as it is.
"""

import hashlib
from dataclasses import fields

from repro.common.rng import RngRegistry
from repro.common.simtime import DAY, HOUR, Window
from repro.warehouse.account import Account
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.queries import QueryRecord, QueryRequest, QueryTemplate
from repro.warehouse.types import ScalingPolicy, WarehouseSize, WarehouseState
from repro.workloads.mixed import (
    make_bi_workload,
    make_static_etl_workload,
    make_unpredictable_workload,
)

GOLDEN_DIGEST = "401ef2837de35c66e45cb6b2c2b361bfc97e28176396f0603994d16fefcbca63"

HORIZON = 2 * DAY


def build_account() -> Account:
    account = Account(name="golden", seed=2024)
    account.create_warehouse(
        "ADHOC",
        WarehouseConfig(
            size=WarehouseSize.S,
            auto_suspend_seconds=300.0,
            min_clusters=1,
            max_clusters=3,
            max_concurrency=2,
        ),
    )
    account.create_warehouse(
        "ETL", WarehouseConfig(size=WarehouseSize.M, auto_suspend_seconds=120.0)
    )
    account.create_warehouse(
        "BI",
        WarehouseConfig(
            size=WarehouseSize.XS,
            auto_suspend_seconds=0.0,
            max_clusters=2,
            scaling_policy=ScalingPolicy.ECONOMY,
            max_concurrency=3,
        ),
    )
    window = Window(0.0, HORIZON)
    adhoc = make_unpredictable_workload(RngRegistry(77), intensity=3.0).generate(window)
    repeated = QueryTemplate(
        "repeated",
        base_work_seconds=40.0,
        partitions=("r.p0", "r.p1", "r.p0", "r.p2", "r.p1"),
        cold_multiplier=3.0,
    )
    adhoc += [
        QueryRequest(repeated, arrival_time=1800.0 * i + 7.0, instance_key=str(i))
        for i in range(int(HORIZON // 1800.0))
    ]
    account.schedule_workload("ADHOC", sorted(adhoc, key=lambda r: r.arrival_time))
    account.schedule_workload(
        "ETL", make_static_etl_workload(RngRegistry(78)).generate(window)
    )
    account.schedule_workload(
        "BI", make_bi_workload(RngRegistry(79)).generate(window)
    )
    return account


def run_golden() -> Account:
    account = build_account()
    adhoc = account.warehouse("ADHOC")
    account.run_until(10 * HOUR)
    adhoc.alter(initiator="golden", size=WarehouseSize.L)
    account.run_until(14 * HOUR)
    adhoc.alter(initiator="golden", min_clusters=2, max_clusters=2)
    account.run_until(30 * HOUR)
    adhoc.alter(initiator="golden", min_clusters=1, max_clusters=1)
    bi = account.warehouse("BI")
    # Run to the first quiet instant after 03:00 on day two, then suspend.
    t = 27 * HOUR
    while t < HORIZON and not (bi.state == WarehouseState.RUNNING and bi.is_idle):
        t += 60.0
        account.run_until(t)
    bi.suspend(initiator="golden")
    account.run_until(HORIZON)
    return account


def _row(record: QueryRecord, first_id: int) -> str:
    values = []
    for f in fields(record):
        value = getattr(record, f.name)
        if f.name == "query_id":
            value -= first_id  # ids come from a process-wide counter
        values.append(f"{f.name}={value!r}")
    return ",".join(values)


def digest(account: Account) -> tuple[str, dict]:
    h = hashlib.sha256()
    counts = {}
    rows = [
        r
        for name in account.telemetry.warehouses()
        for r in account.telemetry.query_history(name, include_overhead=True)
    ]
    first_id = min(r.query_id for r in rows)
    for name in account.telemetry.warehouses():
        history = account.telemetry.query_history(name, include_overhead=True)
        counts[name] = len(history)
        for record in history:
            h.update(_row(record, first_id).encode())
        for event in account.telemetry.warehouse_events(name):
            h.update(repr(event).encode())
        meter = account.warehouse(name).meter
        for column in (meter._starts, meter._ends, meter._rates):
            h.update(repr(column).encode())
        h.update(repr(sorted(meter._open.items())).encode())
    h.update(repr(account.sim.processed_events).encode())
    h.update(repr(account.sim._seq).encode())
    return h.hexdigest(), counts


def test_simulator_golden_digest():
    account = run_golden()
    value, counts = digest(account)
    # The run exercises what it claims: scale-out, the alters and the suspend.
    events = {
        name: [e.kind for e in account.telemetry.warehouse_events(name)]
        for name in ("ADHOC", "BI")
    }
    assert events["ADHOC"].count("alter") == 3 and "resize" in events["ADHOC"]
    assert any(
        e.kind == "suspend" and e.initiator == "golden"
        for e in account.telemetry.warehouse_events("BI")
    )
    clusters = {
        r.cluster_number for r in account.telemetry.query_history("ADHOC")
    }
    assert clusters >= {1, 2}
    assert min(counts.values()) > 0
    assert value == GOLDEN_DIGEST, (value, counts, account.sim.processed_events)
