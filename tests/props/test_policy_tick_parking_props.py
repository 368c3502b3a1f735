"""The parked policy tick changes nothing a warehouse exports.

``VirtualWarehouse`` parks its 30 s policy controller while suspended or
resuming and re-arms it on the grid anchored at creation.  The oracle here
is a test-local warehouse whose controller never parks: it ticks every 30 s
in every state and returns at once unless RUNNING (the behaviour before
parking).  Random runs draw:

* a start instant, some with a 30 s grid of non-integral floats, so only
  re-arming by repeated addition lands on the oracle's fire times;
* arrivals on and off the 30 s and 60 s grids;
* auto-suspend intervals including 0 and non-multiples of 60;
* mid-run ``alter`` calls and explicit ``suspend``/``resume``.

Both warehouses must produce the same QUERY_HISTORY rows, warehouse events,
billing credits and RUNNING-tick fire times, and the parked one must never
tick outside RUNNING.
"""

from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.simtime import HOUR
from repro.warehouse.account import Account
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.queries import QueryRequest, QueryTemplate
from repro.warehouse.types import ScalingPolicy, WarehouseSize, WarehouseState
from repro.warehouse.warehouse import POLICY_TICK_SECONDS, VirtualWarehouse

HORIZON = 6 * HOUR


class RecordingWarehouse(VirtualWarehouse):
    """The warehouse under test, logging ``(time, state)`` per tick."""

    def __init__(self, *args, **kwargs):
        self.ticks: list[tuple[float, WarehouseState]] = []
        super().__init__(*args, **kwargs)

    def _policy_tick(self, now: float) -> None:
        self.ticks.append((now, self.state))
        super()._policy_tick(now)


class FreeRunningWarehouse(RecordingWarehouse):
    """Oracle: one controller created with the warehouse that never parks."""

    def __init__(self, sim, *args, initially_suspended: bool = True, **kwargs):
        super().__init__(sim, *args, initially_suspended=True, **kwargs)
        self._policy_controller.stop()
        free = sim.add_controller(POLICY_TICK_SECONDS, self._free_tick)
        # Only ``shutdown`` may stop it; parking and re-arming are ignored.
        self._policy_controller = _NeverParks(free)
        if not initially_suspended:
            self._complete_resume()

    def _free_tick(self, now: float) -> None:
        if self.state == WarehouseState.RUNNING:
            self._policy_tick(now)


class _NeverParks:
    def __init__(self, controller):
        self.controller = controller

    def park(self) -> None:
        pass

    def rearm(self, after: float) -> None:
        pass

    def stop(self) -> None:
        self.controller.stop()


#: Simulation start times; the grids of the last two are not integral.
_starts = st.sampled_from([0.0, 0.1, 1000.0 / 3])
_grid_times = st.integers(min_value=0, max_value=int(HORIZON // 30) - 1).map(lambda k: 30.0 * k)
_times = st.one_of(
    _grid_times,
    st.integers(min_value=0, max_value=int(HORIZON // 60) - 1).map(lambda k: 60.0 * k),
    st.floats(min_value=0.0, max_value=HORIZON - 1.0),
)
_arrivals = st.lists(
    st.tuples(_times, st.floats(min_value=0.5, max_value=400.0), st.integers(0, 2)),
    max_size=30,
)
_suspend_seconds = st.one_of(
    st.sampled_from([0.0, 30.0, 45.0, 60.0, 90.0, 137.5, 300.0, 601.0]),
    st.floats(min_value=0.0, max_value=1800.0),
)
_config = st.builds(
    WarehouseConfig,
    size=st.sampled_from([WarehouseSize.XS, WarehouseSize.S, WarehouseSize.M]),
    auto_suspend_seconds=_suspend_seconds,
    max_clusters=st.integers(min_value=1, max_value=3),
    scaling_policy=st.sampled_from(list(ScalingPolicy)),
    max_concurrency=st.integers(min_value=1, max_value=3),
)
_alter = st.one_of(
    st.fixed_dictionaries({"auto_suspend_seconds": _suspend_seconds}),
    st.fixed_dictionaries(
        {"size": st.sampled_from([WarehouseSize.XS, WarehouseSize.S, WarehouseSize.L])}
    ),
    st.fixed_dictionaries({"max_clusters": st.integers(min_value=1, max_value=3)}),
)
_operations = st.lists(
    st.tuples(_times, st.one_of(_alter, st.sampled_from(["suspend", "resume"]))),
    max_size=8,
)


def _run(cls, start, config, initially_suspended, arrivals, operations):
    account = Account(seed=11, start_time=start)
    wh = cls(
        account.sim,
        "WH",
        config,
        account.telemetry,
        account.rngs.stream("warehouse.WH"),
        initially_suspended=initially_suspended,
    )
    account.warehouses["WH"] = wh
    requests = [
        QueryRequest(
            QueryTemplate(
                name=f"t{tpl}",
                base_work_seconds=work,
                partitions=tuple(f"t{tpl}.p{j}" for j in range(3)),
            ),
            start + arrival,
            instance_key=str(i),
        )
        for i, (arrival, work, tpl) in enumerate(arrivals)
    ]
    account.schedule_workload("WH", requests)
    for t, op in operations:
        account.sim.schedule(start + t, lambda op=op: _apply(wh, op))
    account.run_until(start + HORIZON)
    rows = [
        {k: v for k, v in asdict(r).items() if k != "query_id"}
        for r in account.telemetry.query_history("WH", include_overhead=True)
    ]
    events = account.telemetry.warehouse_events("WH")
    return wh, rows, events, wh.meter.total_credits(start + HORIZON)


def _apply(wh: VirtualWarehouse, op) -> None:
    if op == "suspend":
        if wh.running_query_count == 0:
            wh.suspend()
    elif op == "resume":
        wh.resume()
    else:
        wh.alter(**op)


class TestPolicyTickParking:
    @given(_starts, _config, st.booleans(), _arrivals, _operations)
    @settings(max_examples=200, deadline=None)
    def test_parked_tick_matches_free_running_oracle(
        self, start, config, initially_suspended, arrivals, operations
    ):
        case = (start, config, initially_suspended, arrivals, operations)
        parked, rows, events, credits = _run(RecordingWarehouse, *case)
        oracle, o_rows, o_events, o_credits = _run(FreeRunningWarehouse, *case)
        assert rows == o_rows
        assert events == o_events
        assert credits == o_credits
        assert parked.ticks == oracle.ticks
        assert all(state == WarehouseState.RUNNING for _, state in parked.ticks)
