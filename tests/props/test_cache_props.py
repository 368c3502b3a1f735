"""Property-based tests for the partition cache.

``PartitionCache.access`` takes a query's footprint, which holds no name
twice.  Accesses here are drawn as partition lists that may repeat names
and handed over as the footprint of a template with those partitions.
"""

from collections import OrderedDict

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.warehouse.cache import PARTITION_BYTES, PartitionCache
from repro.warehouse.queries import QueryTemplate


def template_with(partitions) -> QueryTemplate:
    return QueryTemplate("t", base_work_seconds=1.0, partitions=tuple(partitions))


partition_names = st.text(alphabet="abcdef", min_size=1, max_size=3)
access_sequences = st.lists(
    st.lists(partition_names, min_size=0, max_size=8).map(
        lambda names: template_with(names).footprint
    ),
    min_size=1,
    max_size=30,
)
capacities = st.integers(min_value=0, max_value=12)


class TestCacheProperties:
    @given(capacities, access_sequences)
    @settings(max_examples=200, deadline=None)
    def test_never_exceeds_capacity(self, capacity, accesses):
        cache = PartitionCache(capacity * PARTITION_BYTES)
        for access in accesses:
            cache.access(access)
            assert len(cache) <= capacity

    @given(capacities, access_sequences)
    @settings(max_examples=200, deadline=None)
    def test_hit_ratio_bounds(self, capacity, accesses):
        cache = PartitionCache(capacity * PARTITION_BYTES)
        for access in accesses:
            ratio = cache.access(access)
            assert 0.0 <= ratio <= 1.0

    @given(access_sequences)
    @settings(max_examples=100, deadline=None)
    def test_unbounded_cache_repeated_access_warm(self, accesses):
        """With enough capacity, re-touching any previous access set hits."""
        cache = PartitionCache(10**15)
        for access in accesses:
            cache.access(access)
        for access in accesses:
            assert cache.access(access) == 1.0

    @given(capacities, access_sequences)
    @settings(max_examples=100, deadline=None)
    def test_hits_plus_misses_equals_touches(self, capacity, accesses):
        cache = PartitionCache(capacity * PARTITION_BYTES)
        touches = 0
        for access in accesses:
            cache.access(access)
            touches += len(access)
        assert cache.hits + cache.misses == touches

    @given(capacities, access_sequences)
    @settings(max_examples=100, deadline=None)
    def test_clear_resets_contents(self, capacity, accesses):
        cache = PartitionCache(capacity * PARTITION_BYTES)
        for access in accesses:
            cache.access(access)
        cache.clear()
        assert len(cache) == 0


class _InsertLoopCache:
    """The per-insert LRU ``PartitionCache.access`` replaced: each access
    deduplicated its partitions itself, and each partition went through
    ``_insert``, which re-read the capacity and evicted in a ``while`` loop.
    Kept as the oracle for the inlined loop over a template's footprint."""

    def __init__(self, capacity_bytes: float):
        self.capacity_bytes = float(capacity_bytes)
        self.entries: OrderedDict[str, None] = OrderedDict()
        self.hits = 0
        self.misses = 0

    @property
    def max_partitions(self) -> int:
        return int(self.capacity_bytes // PARTITION_BYTES)

    def access(self, partitions) -> float:
        parts = list(dict.fromkeys(partitions))
        if not parts:
            return 1.0
        hit_set = [p in self.entries for p in parts]
        for p in parts:
            self._insert(p)
        hits = sum(hit_set)
        self.hits += hits
        self.misses += len(parts) - hits
        return hits / len(parts)

    def _insert(self, partition: str) -> None:
        if self.max_partitions == 0:
            return
        self.entries[partition] = None
        self.entries.move_to_end(partition)
        while len(self.entries) > self.max_partitions:
            self.entries.popitem(last=False)

    def resize(self, capacity_bytes: float) -> None:
        self.capacity_bytes = float(capacity_bytes)
        while len(self.entries) > self.max_partitions:
            self.entries.popitem(last=False)

    def clear(self) -> None:
        self.entries.clear()


#: Footprints of up to 8 names from a 6-letter pool (duplicates likely), and
#: capacities of 0, below and above a footprint; ``None`` keeps the capacity.
_steps = st.lists(
    st.tuples(
        st.lists(st.sampled_from("abcdef"), min_size=0, max_size=8),
        st.one_of(st.none(), st.integers(min_value=0, max_value=10)),
    ),
    min_size=1,
    max_size=40,
)


def lru_order(cache: PartitionCache) -> list[str]:
    """The cache's LRU order, least recent first, read without rebuilding
    it: a copy of the entries with the deferred footprints' recency applied
    the eager way, one ``move_to_end`` per touched partition."""
    entries = OrderedDict(cache._entries)
    for footprint in cache._log:
        for p in footprint:
            entries.move_to_end(p)
    return list(entries)


class TestInlinedAccessMatchesInsertLoop:
    @given(st.integers(min_value=0, max_value=10), _steps)
    @settings(max_examples=300, deadline=None)
    def test_same_ratios_counters_and_lru_order(self, capacity, steps):
        cache = PartitionCache(capacity * PARTITION_BYTES)
        oracle = _InsertLoopCache(capacity * PARTITION_BYTES)
        for partitions, resize_to in steps:
            if resize_to is not None:
                cache.resize(resize_to * PARTITION_BYTES)
                oracle.resize(resize_to * PARTITION_BYTES)
            footprint = template_with(partitions).footprint
            assert cache.access(footprint) == oracle.access(partitions)
            assert (cache.hits, cache.misses) == (oracle.hits, oracle.misses)
            assert lru_order(cache) == list(oracle.entries)


#: One cache operation: an access (a partition list from a pool small enough
#: to repeat names across accesses, so logs outgrow the cache and compact),
#: a resize (shrinks included) or a clear.
_operations = st.lists(
    st.one_of(
        st.tuples(st.just("access"), st.lists(st.sampled_from("abcdefghij"), max_size=6)),
        st.tuples(st.just("resize"), st.integers(min_value=0, max_value=12)),
        st.tuples(st.just("clear"), st.none()),
    ),
    min_size=1,
    max_size=80,
)


class TestDeferredRecencyMatchesInsertLoop:
    """Accesses that cannot evict only log their footprint; the order is
    rebuilt before an access that can evict, on resize, and when the log
    outgrows the cache.  Against the eager insert loop, after every
    operation: the same ratio, counters, membership and LRU order, with the
    log never holding more footprints than the cache holds partitions."""

    @given(st.integers(min_value=0, max_value=12), _operations)
    @settings(max_examples=400, deadline=None)
    # Fills a 4-partition cache without evicting, refreshes "a" through the
    # log, then a miss evicts: the victim is "b", not the older "a".
    @example(4, [("access", list("ab")), ("access", list("cd")), ("access", ["a"]),
                 ("access", ["e"])])
    # The same 2-partition footprint ten times compacts the log, twice.
    @example(3, [("access", list("ab"))] * 10 + [("access", list("cd"))])
    # A shrink picks its victims from the logged order; a clear drops the log.
    @example(6, [("access", list("abc")), ("access", ["a"]), ("resize", 2),
                 ("access", list("dab")), ("clear", None), ("access", ["e"])])
    @example(0, [("access", list("ab")), ("access", list("ab")), ("resize", 0)])
    def test_same_ratios_counters_membership_and_order(self, capacity, operations):
        cache = PartitionCache(capacity * PARTITION_BYTES)
        oracle = _InsertLoopCache(capacity * PARTITION_BYTES)
        for kind, argument in operations:
            if kind == "access":
                footprint = template_with(argument).footprint
                assert cache.access(footprint) == oracle.access(argument)
            elif kind == "resize":
                cache.resize(argument * PARTITION_BYTES)
                oracle.resize(argument * PARTITION_BYTES)
            else:
                cache.clear()
                oracle.clear()
            assert (cache.hits, cache.misses) == (oracle.hits, oracle.misses)
            assert len(cache) == len(oracle.entries)
            assert all(p in cache for p in oracle.entries)
            assert lru_order(cache) == list(oracle.entries)
            assert len(cache._log) <= len(cache)

    def test_accesses_that_cannot_evict_leave_the_order_unbuilt(self):
        cache = PartitionCache(8 * PARTITION_BYTES)
        cache.access(("a", "b"))
        cache.access(("c",))
        cache.access(("a",))
        assert list(cache._entries) == ["a", "b", "c"]  # insertion order only
        assert len(cache._log) == 3
        cache.clear()
        assert not cache._log and len(cache) == 0
