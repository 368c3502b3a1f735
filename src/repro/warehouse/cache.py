"""Per-cluster local result/data cache.

Snowflake clusters keep recently scanned table data on local SSD; the cache
is lost when the warehouse suspends (its servers are released) or when it is
resized (new servers are provisioned).  This is the mechanism behind the
paper's §3 "memory optimization" trade-off: a short auto-suspend interval
saves idle credits but forces cold reads — and therefore longer, more
expensive queries — after resume.

The cache is modelled as an LRU over named data partitions with a byte
capacity determined by warehouse size.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import Sequence

from repro.common.errors import ConfigurationError

#: Size of one cacheable data partition.  Snowflake micro-partitions are
#: ~16 MB compressed; we use a coarser 64 MB unit so workloads stay small.
PARTITION_BYTES = 64 * (2**20)


class PartitionCache:
    """LRU cache of data partitions with byte-capacity eviction.

    Only identity (partition name) matters; all partitions have the same
    size, so capacity is equivalently a max partition count.

    Membership is exact after every access; recency is kept only for an
    eviction that can read it.  An access that cannot evict (its misses
    fit) adds its misses and logs its footprint.  The LRU order is rebuilt
    from that log before an access that can evict, on :meth:`resize`, and
    whenever the log holds more footprints than the cache holds
    partitions.  :meth:`clear` drops the log unread: a suspended cluster's
    cache never needed its order.

    Most accesses repeat a footprint the cache already holds whole.  Only
    an eviction, :meth:`clear` or :meth:`resize` removes a partition, so
    the cache remembers, per footprint tuple, the eviction generation at
    which that footprint was last wholly resident; an access whose memo
    matches the current generation is a full hit without a membership
    test.  Evictions bump the generation; ``clear`` and ``resize`` drop
    the memo.
    """

    def __init__(self, capacity_bytes: float):
        if capacity_bytes < 0:
            raise ConfigurationError("cache capacity must be non-negative")
        self.capacity_bytes = float(capacity_bytes)
        #: Every cached partition; least recent first once ``_log`` is empty.
        self._entries: OrderedDict[str, None] = OrderedDict()
        #: Footprints accessed since the order was last rebuilt, oldest first.
        self._log: list[Sequence[str]] = []
        #: Footprint tuple -> ``_generation`` when it was last wholly resident.
        self._resident: dict[tuple[str, ...], int] = {}
        #: Counts the accesses that evicted.
        self._generation = 0
        self.hits = 0
        self.misses = 0

    @property
    def max_partitions(self) -> int:
        return int(self.capacity_bytes // PARTITION_BYTES)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, partition: str) -> bool:
        return partition in self._entries

    def access(self, footprint: Sequence[str]) -> float:
        """Touch a query's ``footprint``; return the hit ratio of this access.

        ``footprint`` holds no name twice (``QueryTemplate.footprint``: a
        query reads each partition once).  Missing partitions are loaded
        (inserted) and hits are refreshed, so a repeated access is fully
        warm.  An empty access counts as fully warm (ratio 1.0) because a
        query that scans nothing cannot miss.
        """
        if not footprint:
            return 1.0
        entries = self._entries
        log = self._log
        memo = type(footprint) is tuple
        if memo and self._resident.get(footprint) == self._generation:
            # Wholly resident, and nothing has left the cache since: the
            # branch below with no misses.
            log.append(footprint)
            if len(log) > len(entries):
                self._replay()
            self.hits += len(footprint)
            return 1.0
        # Snapshot semantics: the hit set is decided against the cache state
        # at access start (insertions during the scan cannot evict a
        # partition this same query was about to read).
        hits = len(entries.keys() & footprint)
        misses = len(footprint) - hits
        cap = self.max_partitions
        if len(entries) + misses <= cap:
            # Nothing can be evicted: load the misses (assigning a cached
            # partition leaves its place as it is) and defer the recency.
            if misses:
                for p in footprint:
                    entries[p] = None
            log.append(footprint)
            if len(log) > len(entries):
                self._replay()
            if memo:
                self._resident[footprint] = self._generation
        elif cap:
            self._replay()
            entries = self._entries
            self._generation += 1
            # (Re-)insert everything: refreshes recency for hits and loads
            # misses; a hit evicted moments ago by this access's own misses
            # is simply reloaded.  ``footprint`` is duplicate-free and
            # ``len(entries) <= cap`` holds on entry, so one insert
            # overflows by at most one entry.
            for p in footprint:
                if p in entries:
                    entries.move_to_end(p)
                else:
                    entries[p] = None
                    if len(entries) > cap:
                        entries.popitem(last=False)
            # The footprint ends as the most recent entries, whole unless it
            # outgrows the cache.
            if memo and len(footprint) <= cap:
                self._resident[footprint] = self._generation
        self.hits += hits
        self.misses += misses
        return hits / len(footprint)

    def _replay(self) -> None:
        """Apply the logged footprints' recency to the order.

        None of them evicted, so the eager loop would have left the
        partitions they did not touch in their order, ahead of the touched
        ones in order of last touch; that order is built directly.
        """
        log = self._log
        if not log:
            return
        last_touch = dict.fromkeys(chain.from_iterable(map(reversed, reversed(log))))
        order = [p for p in self._entries if p not in last_touch]
        order.extend(reversed(last_touch))
        self._entries = OrderedDict.fromkeys(order)
        log.clear()

    def clear(self) -> None:
        """Drop everything (suspend / resize semantics)."""
        self._entries.clear()
        self._log.clear()
        self._resident.clear()

    def resize(self, capacity_bytes: float) -> None:
        """Change capacity.  The simulator clears on resize anyway, but a
        standalone cache shrinks by evicting the least recent entries."""
        if capacity_bytes < 0:
            raise ConfigurationError("cache capacity must be non-negative")
        self.capacity_bytes = float(capacity_bytes)
        self._replay()
        self._resident.clear()
        while len(self._entries) > self.max_partitions:
            self._entries.popitem(last=False)
