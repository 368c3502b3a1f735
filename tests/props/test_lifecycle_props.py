"""Property tests for the per-query lifecycle bookkeeping.

* ``MultiClusterScheduler._pick_cluster`` walks the clusters once; the
  list-and-``min`` version it replaced is kept here as the oracle, over
  random cluster states, running counts and draining sets, and inside
  whole random simulations.
* ``VirtualWarehouse`` counts its running queries instead of summing over
  clusters; after every dispatched event the count must equal the sum,
  under random submits, alters, resizes, suspends and resumes.
* ``Simulation.schedule`` returns the event itself as its handle; however
  an event is cancelled (pending, already dispatched, by its own callback
  or twice) the live counter equals a scan of the heap.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.simtime import HOUR
from repro.warehouse.account import Account
from repro.warehouse.cluster import Cluster, ClusterState
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.engine import Simulation
from repro.warehouse.queries import QueryRecord, QueryRequest, QueryTemplate
from repro.warehouse.scheduler import MultiClusterScheduler
from repro.warehouse.types import ScalingPolicy, WarehouseSize

HORIZON = 4 * HOUR


def oracle_pick(wh):
    """The list-and-``min`` ``_pick_cluster``, with the ``Cluster.is_available``
    and ``Cluster.load`` properties it read, as they were."""

    def is_available(c):
        return c.state == ClusterState.RUNNING and c.free_slots > 0

    def load(c):
        if c.state != ClusterState.RUNNING:
            return 0.0
        return len(c.running) / c.max_concurrency

    active = [c for c in wh.clusters.values() if c.state == ClusterState.RUNNING]
    candidates = [c for c in active if is_available(c) and c.cluster_id not in wh.draining]
    if not candidates:
        return None
    return min(candidates, key=lambda c: (load(c), c.cluster_id))


class _Clusters:
    """The two attributes ``_pick_cluster`` reads off its warehouse."""

    def __init__(self, clusters: dict, draining: set):
        self.clusters = clusters
        self.draining = draining


_cluster_specs = st.lists(
    st.tuples(
        st.sampled_from(list(ClusterState)),
        st.integers(min_value=1, max_value=4),  # max_concurrency
        st.integers(min_value=0, max_value=4),  # running queries (capped)
        st.booleans(),  # draining
    ),
    max_size=6,
)


class TestPickCluster:
    @given(_cluster_specs, st.randoms(use_true_random=False))
    @settings(max_examples=400, deadline=None)
    def test_one_pass_matches_list_and_min(self, specs, random):
        ids = random.sample(range(1, 50), len(specs))  # unique, any dict order
        clusters, draining = {}, set()
        for cluster_id, (state, concurrency, n_running, drains) in zip(ids, specs):
            cluster = Cluster(cluster_id, WarehouseSize.XS, concurrency, state=state)
            for q in range(min(n_running, concurrency)):
                cluster.running[q] = QueryRecord(q, "WH", "", "", 0.0)
            clusters[cluster_id] = cluster
            if drains:
                draining.add(cluster_id)
        wh = _Clusters(clusters, draining)
        assert MultiClusterScheduler(wh)._pick_cluster() is oracle_pick(wh)


_times = st.floats(min_value=0.0, max_value=HORIZON - 1.0)
_arrivals = st.lists(
    st.tuples(
        _times, st.floats(min_value=0.5, max_value=900.0), st.integers(0, 3), st.integers(0, 1)
    ),
    max_size=40,
)
_bounds = st.integers(min_value=1, max_value=3).flatmap(
    lambda hi: st.tuples(st.integers(min_value=1, max_value=hi), st.just(hi))
)
_alter = st.one_of(
    st.fixed_dictionaries(
        {"size": st.sampled_from([WarehouseSize.XS, WarehouseSize.S, WarehouseSize.L])}
    ),
    _bounds.map(lambda b: {"min_clusters": b[0], "max_clusters": b[1]}),
    st.fixed_dictionaries({"max_concurrency": st.integers(min_value=1, max_value=3)}),
    st.fixed_dictionaries({"auto_suspend_seconds": st.sampled_from([0.0, 60.0, 300.0])}),
    st.fixed_dictionaries({"scaling_policy": st.sampled_from(list(ScalingPolicy))}),
)
_operations = st.lists(
    st.tuples(
        _times, st.integers(0, 1), st.one_of(_alter, st.sampled_from(["suspend", "resume"]))
    ),
    max_size=10,
)
_configs = st.builds(
    lambda bounds, concurrency, suspend: WarehouseConfig(
        size=WarehouseSize.XS,
        auto_suspend_seconds=suspend,
        min_clusters=bounds[0],
        max_clusters=bounds[1],
        max_concurrency=concurrency,
    ),
    _bounds,
    st.integers(min_value=1, max_value=3),
    st.sampled_from([0.0, 60.0, 300.0]),
)


def _apply(wh, op) -> None:
    if op == "suspend":
        if wh.is_idle:
            wh.suspend()
    elif op == "resume":
        wh.resume()
    else:
        wh.alter(**op)


class _CheckedSimulation(Simulation):
    """A simulation that runs ``check()`` after every event callback and
    every fed item."""

    def __init__(self, check):
        super().__init__()
        self.check = check

    def schedule(self, time, callback, label=None):
        def checked():
            callback()
            self.check()

        return super().schedule(time, checked, label)

    def feed(self, times, items, deliver):
        def checked(item):
            deliver(item)
            self.check()

        super().feed(times, items, checked)


class TestCountedRunningSet:
    @given(st.lists(_configs, min_size=2, max_size=2), _arrivals, _operations)
    @settings(max_examples=150, deadline=None)
    def test_count_equals_sum_after_every_event(self, configs, arrivals, operations):
        warehouses = []
        checks = []

        def check():
            checks.append(None)
            for wh in warehouses:
                total = sum(len(c.running) for c in wh.clusters.values())
                assert wh.running_query_count == total
                assert wh.is_idle == (total == 0 and wh.queue_length == 0)

        account = Account(seed=3)
        account.sim = _CheckedSimulation(check)
        warehouses += [
            account.create_warehouse(f"WH{i}", config) for i, config in enumerate(configs)
        ]
        picks = []
        for wh in warehouses:
            scheduler = wh.scheduler
            one_pass = scheduler._pick_cluster

            def checked_pick(wh=wh, one_pass=one_pass):
                picked = one_pass()
                picks.append(picked)
                assert picked is oracle_pick(wh)
                return picked

            scheduler._pick_cluster = checked_pick
        for i, (arrival, work, k, target) in enumerate(arrivals):
            template = QueryTemplate(
                f"t{k}", base_work_seconds=work, partitions=(f"p{k}", "shared", f"p{k}")
            )
            account.schedule_workload(
                f"WH{target}", [QueryRequest(template, arrival, instance_key=str(i))]
            )
        for t, target, op in operations:
            account.sim.schedule(t, lambda wh=warehouses[target], op=op: _apply(wh, op))
        account.run_until(HORIZON)
        done = sum(len(account.telemetry.query_history(wh.name)) for wh in warehouses)
        running = sum(wh.running_query_count for wh in warehouses)
        queued = sum(wh.queue_length for wh in warehouses)
        assert done + running + queued == len(arrivals)
        # Every dispatched query went through the checked pick.  (An arrival
        # within a resume of the horizon is still queued there, unpicked.)
        if done + running:
            assert picks
        assert len(checks) == account.sim.processed_events


_programs = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(min_value=0, max_value=40), st.booleans()),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10**6)),
        st.tuples(st.just("run"), st.integers(min_value=0, max_value=25)),
        st.tuples(st.just("run_all"), st.integers(min_value=0, max_value=25)),
    ),
    max_size=60,
)


def _scan(sim: Simulation) -> int:
    """The O(heap) ground truth for ``pending_events``."""
    return sum(1 for entry in sim._heap if not entry[2].cancelled)


class TestEventIsItsOwnHandle:
    @given(_programs)
    @settings(max_examples=300, deadline=None)
    def test_pending_counter_matches_heap_scan(self, program):
        sim = Simulation()
        events = []  # every event ever scheduled: pending, popped or cancelled

        def make_callback(index, cancels_itself):
            def callback():
                if cancels_itself:
                    events[index].cancel()  # already popped: changes nothing
                    assert sim.pending_events == _scan(sim)

            return callback

        for op in program:
            if op[0] == "schedule":
                _, delay, cancels_itself = op
                event = sim.schedule_in(float(delay), make_callback(len(events), cancels_itself))
                assert event.time == sim.now + delay and not event.cancelled
                events.append(event)
            elif op[0] == "cancel" and events:
                event = events[op[1] % len(events)]
                event.cancel()
                assert event.cancelled
            elif op[0] == "run":
                sim.run_until(sim.now + op[1])
            elif op[0] == "run_all":
                sim.run_all(hard_stop=sim.now + op[1])
            assert sim.pending_events == _scan(sim)
        sim.run_all()
        assert sim.pending_events == _scan(sim) == 0
