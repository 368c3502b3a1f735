"""Property tests: the query lifecycle against the queue-always oracle.

A query that finds its warehouse running, nothing queued and a cluster
free starts from ``submit`` without touching the queue; a completion calls
the dispatch loop only when something is queued; and
``PartitionCache.access`` answers a footprint that is still wholly
resident from a memo.  ``tests/props/lifecycle_oracle.py``
keeps the lifecycle those replaced; here both run the same random accounts
and must leave the same QUERY_HISTORY rows (by ``repr``), billing segments,
warehouse events, event counters and RNG states, and the cache must give
the oracle's ratios, counters and LRU order access for access.
"""

from collections import OrderedDict

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.simtime import HOUR
from repro.warehouse.account import Account
from repro.warehouse.cache import PARTITION_BYTES, PartitionCache
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.queries import QueryRequest, QueryTemplate
from repro.warehouse.types import ScalingPolicy, WarehouseSize

from tests.props import lifecycle_oracle as oracle
from tests.warehouse.test_simulator_golden import run_golden

HORIZON = 6 * HOUR

_sizes = st.sampled_from([WarehouseSize.XS, WarehouseSize.S, WarehouseSize.M])
_bounds = st.integers(min_value=1, max_value=3).flatmap(
    lambda hi: st.tuples(st.integers(min_value=1, max_value=hi), st.just(hi))
)
_configs = st.builds(
    lambda size, bounds, concurrency, suspend, policy: WarehouseConfig(
        size=size,
        auto_suspend_seconds=suspend,
        min_clusters=bounds[0],
        max_clusters=bounds[1],
        max_concurrency=concurrency,
        scaling_policy=policy,
    ),
    _sizes,
    _bounds,
    st.integers(min_value=1, max_value=3),
    st.sampled_from([0.0, 60.0, 300.0]),
    st.sampled_from(list(ScalingPolicy)),
)
#: Templates as (work, first partition, partition count): footprints from
#: one shared pool, some larger than an XS cache (512 partitions), so
#: clusters evict, re-read and overlap.
_templates = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=900.0),
        st.integers(min_value=0, max_value=300),
        st.sampled_from([0, 3, 300, 600, 1100]),
    ),
    min_size=1,
    max_size=4,
)
_times = st.floats(min_value=0.0, max_value=HORIZON - 1.0)
#: Arrivals as (time, template index, warehouse index); bursts in a few
#: minutes fill slots and queue.
_arrivals = st.lists(
    st.tuples(
        st.one_of(_times, st.floats(min_value=HOUR, max_value=HOUR + 300.0)),
        st.integers(0, 3),
        st.integers(0, 1),
    ),
    min_size=10,
    max_size=80,
)
_alter = st.one_of(
    st.fixed_dictionaries({"size": _sizes}),
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


def _apply(wh, op) -> None:
    if op == "suspend":
        if wh.is_idle:
            wh.suspend()
    elif op == "resume":
        wh.resume()
    else:
        wh.alter(**op)


def _run(configs, templates, arrivals, operations) -> dict:
    account = Account(seed=5)
    warehouses = [
        account.create_warehouse(f"WH{i}", config) for i, config in enumerate(configs)
    ]
    for w, wh in enumerate(warehouses):
        requests = [
            QueryRequest(templates[k % len(templates)], t, instance_key=str(i))
            for i, (t, k, target) in enumerate(arrivals)
            if target % len(warehouses) == w
        ]
        account.schedule_workload(wh.name, requests)
    for t, target, op in operations:
        wh = warehouses[target % len(warehouses)]
        account.sim.schedule(t, lambda wh=wh, op=op: _apply(wh, op))
    account.run_until(HORIZON)
    return oracle.snapshot(account)


class TestLifecycleMatchesOracle:
    @given(
        st.lists(_configs, min_size=1, max_size=2),
        _templates,
        _arrivals,
        _operations,
    )
    @settings(max_examples=120, deadline=None)
    def test_same_rows_billing_events_counters_and_rng(
        self, configs, template_specs, arrivals, operations
    ):
        templates = [
            QueryTemplate(
                f"t{k}",
                base_work_seconds=work,
                partitions=tuple(f"p{first + i}" for i in range(count)),
                cold_multiplier=3.0,
            )
            for k, (work, first, count) in enumerate(template_specs)
        ]
        library = _run(configs, templates, arrivals, operations)
        with oracle.installed():
            reference = _run(configs, templates, arrivals, operations)
        assert library == reference

    def test_golden_run_matches_oracle(self):
        # The simulator golden's account: scale-out, a resize, cluster-bound
        # alters, an ECONOMY warehouse and a manual suspend.
        library = oracle.snapshot(run_golden())
        with oracle.installed():
            reference = oracle.snapshot(run_golden())
        assert library == reference

    def test_draining_cluster_matches_oracle(self):
        # Three one-slot clusters kept busy by long queries; lowering the
        # cluster cap while every cluster runs marks one draining, and it
        # stops when its query completes.
        template = QueryTemplate(
            "long", base_work_seconds=1200.0, partitions=tuple(f"q{i}" for i in range(700))
        )
        config = WarehouseConfig(
            size=WarehouseSize.XS,
            auto_suspend_seconds=60.0,
            min_clusters=3,
            max_clusters=3,
            max_concurrency=1,
        )
        drained = []

        def run() -> dict:
            account = Account(seed=11)
            wh = account.create_warehouse("WH", config)
            requests = [
                QueryRequest(template, 60.0 * i, instance_key=str(i)) for i in range(30)
            ]
            account.schedule_workload("WH", requests)
            account.run_until(HOUR)
            wh.alter(min_clusters=1, max_clusters=2)
            drained.append(set(wh.draining))
            account.run_until(3 * HOUR)
            return oracle.snapshot(account)

        library = run()
        with oracle.installed():
            reference = run()
        assert drained[0] and drained[0] == drained[1]
        assert library == reference


#: A pool of footprint tuples (re-used objects, so the memo is hit as well
#: as filled), from a partition pool small enough to evict.
_footprints = st.lists(
    st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=5).map(
        lambda names: tuple(dict.fromkeys(names))
    ),
    min_size=2,
    max_size=5,
)
_access = st.tuples(st.just("access"), st.integers(0, 4))
_cache_operations = st.lists(
    st.one_of(
        _access,
        _access,
        _access,
        # A list footprint takes the unmemoized path.
        st.tuples(st.just("list"), st.integers(0, 4)),
        st.tuples(st.just("resize"), st.integers(min_value=0, max_value=8)),
        st.tuples(st.just("clear"), st.none()),
    ),
    min_size=1,
    max_size=80,
)


def lru_order(cache: PartitionCache) -> list[str]:
    """The LRU order, least recent first, read without rebuilding it."""
    entries = OrderedDict(cache._entries)
    for footprint in cache._log:
        for p in footprint:
            entries.move_to_end(p)
    return list(entries)


class TestFootprintMemoMatchesOracle:
    @given(st.integers(min_value=0, max_value=8), _footprints, _cache_operations)
    @settings(max_examples=400, deadline=None)
    # A memoized footprint loses a partition to another access's eviction:
    # the next access of it is a partial hit, not a memo hit.
    @example(3, [("a", "b"), ("c", "d")], [("access", 0), ("access", 1), ("access", 0)])
    # A shrink evicts a memoized footprint's partitions.
    @example(4, [("a", "b"), ("c", "d")],
             [("access", 0), ("access", 1), ("resize", 2), ("access", 0)])
    # A clear empties the cache under a memoized footprint.
    @example(4, [("a", "b")], [("access", 0), ("clear", None), ("access", 0)])
    # A footprint larger than the cache is never wholly resident.
    @example(2, [("a", "b", "c")], [("access", 0), ("access", 0)])
    def test_same_ratios_counters_and_order(self, capacity, footprints, operations):
        cache = PartitionCache(capacity * PARTITION_BYTES)
        reference = PartitionCache(capacity * PARTITION_BYTES)
        for kind, argument in operations:
            if kind in ("access", "list"):
                footprint = footprints[argument % len(footprints)]
                if kind == "list":
                    footprint = list(footprint)
                assert cache.access(footprint) == oracle.access(reference, footprint)
            elif kind == "resize":
                cache.resize(argument * PARTITION_BYTES)
                reference.resize(argument * PARTITION_BYTES)
            else:
                cache.clear()
                reference.clear()
            assert (cache.hits, cache.misses) == (reference.hits, reference.misses)
            assert lru_order(cache) == lru_order(reference)
            # A current memo entry is a promise that the footprint is cached.
            for footprint, generation in cache._resident.items():
                if generation == cache._generation:
                    assert all(p in cache for p in footprint)
        cache._replay()
        reference._replay()
        assert list(cache._entries) == list(reference._entries)

    def test_repeated_footprint_is_a_memo_hit(self):
        cache = PartitionCache(4 * PARTITION_BYTES)
        footprint = ("a", "b")
        assert cache.access(footprint) == 0.0
        assert cache._resident == {footprint: cache._generation}
        assert cache.access(footprint) == 1.0
        assert cache.access(("c", "d", "e")) == 0.0  # evicts "a"
        assert cache._resident[footprint] != cache._generation
        assert cache.access(footprint) == 0.5
