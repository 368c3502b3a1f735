"""The parked policy tick changes nothing a warehouse exports.

``VirtualWarehouse`` parks its 30 s policy controller whenever a tick cannot
act: while suspended or resuming, and after a fire that leaves nothing
queued and no cluster above a one-cluster floor.  It re-arms the controller
on the grid anchored at creation.  The oracle here is a test-local warehouse
whose controller never parks: it ticks every 30 s in every state and returns
at once unless RUNNING (the behaviour before parking).  Random runs draw:

* a start instant, some with a 30 s grid of non-integral floats, so only
  re-arming by repeated addition lands on the oracle's fire times;
* arrivals on and off the 30 s and 60 s grids;
* auto-suspend intervals including 0 and non-multiples of 60;
* configs and mid-run ``alter`` calls over size, auto-suspend, cluster
  bounds, ``max_concurrency`` and the scaling policy;
* explicit ``suspend`` (when idle) and ``resume``.

Both warehouses must produce the same QUERY_HISTORY rows, warehouse events,
billing credits and cluster lifecycle.  The parked warehouse's ticks are a
subset of the oracle's, none fires outside RUNNING, and every tick that
*acted* is the same in both, at the same time with the same state change.
A tick acted if it dispatched a query, scaled out or in, marked a cluster
draining, changed the scheduler's low-load count, or moved the suspend
deadline.
"""

from dataclasses import asdict, dataclass

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.simtime import HOUR
from repro.warehouse.account import Account
from repro.warehouse.cluster import ClusterState
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.queries import QueryRequest, QueryTemplate
from repro.warehouse.types import ScalingPolicy, WarehouseSize, WarehouseState
from repro.warehouse.warehouse import POLICY_TICK_SECONDS, VirtualWarehouse

HORIZON = 6 * HOUR


def _tick_state(wh: VirtualWarehouse) -> tuple:
    """What a policy tick can change; the suspend handle compares by
    identity, so a cancel-and-reschedule counts even at an unchanged time."""
    return (
        wh.queue_length,
        wh.running_query_count,
        tuple(sorted((c.cluster_id, c.state.value) for c in wh.clusters.values())),
        tuple(sorted(wh.draining)),
        wh.scheduler._low_load_checks,
        wh.scheduler._last_scale_out_at,
        wh._suspend_handle,
    )


@dataclass(frozen=True)
class Tick:
    time: float
    state: WarehouseState
    before: tuple
    after: tuple

    @property
    def acted(self) -> bool:
        return self.before != self.after

    def change(self) -> tuple:
        """The tick's state change, comparable across two runs."""
        return (self.time, _portable(self.before), _portable(self.after))


def _portable(state: tuple) -> tuple:
    handle = state[-1]
    return state[:-1] + (None if handle is None else handle.time,)


class RecordingWarehouse(VirtualWarehouse):
    """The warehouse under test, logging every tick and cluster change."""

    def __init__(self, *args, **kwargs):
        self.ticks: list[Tick] = []
        self.lifecycle: list[tuple] = []
        super().__init__(*args, **kwargs)

    def _policy_tick(self, now: float) -> None:
        before = _tick_state(self)
        super()._policy_tick(now)
        self.ticks.append(Tick(now, self.state, before, _tick_state(self)))

    def _start_cluster_now(self):
        cluster = super()._start_cluster_now()
        self.lifecycle.append((self.sim.now, "start", cluster.cluster_id, cluster.ordinal))
        return cluster

    def _start_additional_cluster(self, now: float) -> None:
        started = set(self.clusters)
        super()._start_additional_cluster(now)
        for cluster_id in sorted(set(self.clusters) - started):
            self.lifecycle.append((now, "provision", cluster_id))

    def _finish_cluster_start(self, cluster) -> None:
        super()._finish_cluster_start(cluster)
        self.lifecycle.append((self.sim.now, cluster.state.value, cluster.cluster_id))

    def _stop_cluster(self, cluster, now: float) -> None:
        super()._stop_cluster(cluster, now)
        self.lifecycle.append((now, "stop", cluster.cluster_id))


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
#: ``(min_clusters, max_clusters)`` with ``1 <= min <= max <= 3``.
_bounds = st.integers(min_value=1, max_value=3).flatmap(
    lambda hi: st.tuples(st.integers(min_value=1, max_value=hi), st.just(hi))
)
_concurrency = st.integers(min_value=1, max_value=3)
_policies = st.sampled_from(list(ScalingPolicy))
_config = st.builds(
    lambda size, suspend, bounds, policy, concurrency: WarehouseConfig(
        size=size,
        auto_suspend_seconds=suspend,
        min_clusters=bounds[0],
        max_clusters=bounds[1],
        scaling_policy=policy,
        max_concurrency=concurrency,
    ),
    st.sampled_from([WarehouseSize.XS, WarehouseSize.S, WarehouseSize.M]),
    _suspend_seconds,
    _bounds,
    _policies,
    _concurrency,
)
_alter = st.one_of(
    st.fixed_dictionaries({"auto_suspend_seconds": _suspend_seconds}),
    st.fixed_dictionaries(
        {"size": st.sampled_from([WarehouseSize.XS, WarehouseSize.S, WarehouseSize.L])}
    ),
    _bounds.map(lambda b: {"min_clusters": b[0], "max_clusters": b[1]}),
    st.fixed_dictionaries({"max_concurrency": _concurrency}),
    st.fixed_dictionaries({"scaling_policy": _policies}),
)
_operations = st.lists(
    st.tuples(_times, st.one_of(_alter, st.sampled_from(["suspend", "resume"]))),
    max_size=8,
)

#: The tie case: a parked warehouse takes two long queries on one slot at a
#: grid instant (t=300).  The submit leaves a queue and scales out, and the
#: tick re-arms strictly after the instant, at t=330.
_TIE_CONFIG = WarehouseConfig(
    size=WarehouseSize.XS, auto_suspend_seconds=0.0, max_clusters=2, max_concurrency=1
)
_TIE_ARRIVALS = [(10.0, 5.0, 0), (300.0, 200.0, 1), (300.0, 200.0, 2)]
#: The other tie: an ``alter`` at a grid instant lowers a two-cluster floor
#: with both clusters idle.  The oracle's tick at that instant runs after it
#: and counts a low-load check, so a floor above one must keep ticking.
_FLOOR_CONFIG = WarehouseConfig(
    size=WarehouseSize.XS,
    auto_suspend_seconds=0.0,
    min_clusters=2,
    max_clusters=2,
    max_concurrency=3,
)
_FLOOR_OPERATIONS = [(300.0, {"min_clusters": 1, "max_clusters": 2})]


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
        if wh.is_idle:
            wh.suspend()
    elif op == "resume":
        wh.resume()
    else:
        wh.alter(**op)


class TestPolicyTickParking:
    @given(_starts, _config, st.booleans(), _arrivals, _operations)
    @example(0.0, _TIE_CONFIG, True, _TIE_ARRIVALS, [])
    @example(0.0, _FLOOR_CONFIG, True, [(10.0, 5.0, 0)], _FLOOR_OPERATIONS)
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
        assert parked.lifecycle == oracle.lifecycle
        assert {t.time for t in parked.ticks} <= {t.time for t in oracle.ticks}
        assert [t.change() for t in parked.ticks if t.acted] == [
            t.change() for t in oracle.ticks if t.acted
        ]
        assert all(t.state == WarehouseState.RUNNING for t in parked.ticks)

    def test_submit_on_a_grid_instant_rearms_after_it(self):
        case = (0.0, _TIE_CONFIG, True, _TIE_ARRIVALS, [])
        parked, rows, _, _ = _run(RecordingWarehouse, *case)
        oracle, o_rows, _, _ = _run(FreeRunningWarehouse, *case)
        assert rows == o_rows
        # The first query ran and drained long before t=300: nothing ticked.
        assert [t.time for t in parked.ticks][:1] == [330.0]
        (at_300,) = [t for t in oracle.ticks if t.time == 300.0]
        # The oracle's tick at that instant ran after both submits (they were
        # scheduled first) and found the queue and the scale-out already done.
        assert at_300.before[0] == 1
        assert (2, ClusterState.STARTING.value) in at_300.before[2]
        assert not at_300.acted
