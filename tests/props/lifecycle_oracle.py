"""The query lifecycle the direct start and the footprint memo replaced
(test oracle).

These are ``VirtualWarehouse.submit``, ``_begin_execution`` and
``_complete_query``, ``MultiClusterScheduler.dispatch`` and
``PartitionCache.access`` as they were when every submit went through the
queue and the dispatch loop, every completion called ``dispatch`` whatever
the queue held, and every cache access intersected the cache with its
footprint.  They are kept verbatim so
``tests/props/test_lifecycle_oracle_props.py`` and
``benchmarks/bench_perf_lifecycle.py`` can hold the library lifecycle to
them bit for bit: every QUERY_HISTORY row by ``repr``, every billing
segment and warehouse event, the event counters and the RNG states.
Library code never imports this module.

:func:`installed` swaps the oracle methods onto the library classes for
the duration of a ``with`` block, so any account built and run inside it
(a whole experiment's included) runs the oracle lifecycle.
:func:`snapshot` reads what the two lifecycles must agree on.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields

from repro.warehouse.account import Account
from repro.warehouse.cache import PartitionCache
from repro.warehouse.cluster import Cluster
from repro.warehouse.queries import QueryRecord, QueryRequest, next_query_id
from repro.warehouse.scheduler import MultiClusterScheduler
from repro.warehouse.types import WarehouseState
from repro.warehouse.warehouse import (
    CONTENTION_SLOWDOWN,
    LATENCY_NOISE_SIGMA,
    VirtualWarehouse,
)


@dataclass
class _PendingQuery:
    """Internal pairing of the ground-truth request with its telemetry row."""

    request: QueryRequest
    record: QueryRecord


# --------------------------------------------------------- VirtualWarehouse
def submit(self, request: QueryRequest, is_overhead: bool = False) -> QueryRecord:
    """Accept a query at the current simulation time."""
    now = self.sim.now
    record = QueryRecord(
        query_id=next_query_id(),
        warehouse=self.name,
        text_hash=request.text_hash,
        template_hash=request.template_hash,
        arrival_time=now,
        bytes_scanned=request.template.bytes_scanned,
        is_overhead=is_overhead,
        chained=request.chained,
    )
    self.scheduler.enqueue(_PendingQuery(request, record))
    self.last_activity = now
    self._cancel_suspend_check()
    if self.state == WarehouseState.SUSPENDED:
        self._begin_resume()
    elif self.state == WarehouseState.RUNNING:
        self.scheduler.dispatch(now)
        # Only the queue changed, and a parked tick stays parked while
        # it is empty (see _wake_policy_tick).
        if self.scheduler.queue:
            self._policy_controller.rearm(now)
    # RESUMING: the queue drains when the resume completes.
    return record


def _begin_execution(self, pending: _PendingQuery, cluster: Cluster, now: float) -> None:
    record, request = pending.record, pending.request
    template = request.template
    hit_ratio = cluster.cache.access(template.footprint)
    warm, spill_steps = template.execution(self.config.size)
    cache_mult = 1.0 + (template.cold_multiplier - 1.0) * (1.0 - hit_ratio)
    contention_mult = 1.0 + CONTENTION_SLOWDOWN * len(cluster.running)
    noise = float(self.rng.lognormal(0.0, LATENCY_NOISE_SIGMA))
    duration = warm * cache_mult * contention_mult * noise
    record.start_time = now
    record.queued_seconds = now - record.arrival_time
    record.execution_seconds = duration
    record.warehouse_size = self.config.size
    record.cluster_number = cluster.ordinal
    record.cache_hit_ratio = hit_ratio
    if spill_steps:
        # Rough working-set proxy: each missing size step spills another
        # copy of the scanned bytes to storage.
        record.bytes_spilled = template.bytes_scanned * spill_steps
    cluster.begin_query(record, now)
    self._running += 1
    self.sim.schedule_in(duration, lambda: self._complete_query(record, cluster))


def _complete_query(self, record: QueryRecord, cluster: Cluster) -> None:
    now = self.sim.now
    cluster.finish_query(record.query_id, now)
    self._running -= 1
    record.end_time = now
    record.completed = True
    self.telemetry.record_query(record)
    self.last_activity = now
    self._exec_ewma = 0.2 * record.execution_seconds + 0.8 * self._exec_ewma
    if cluster.cluster_id in self.draining and not cluster.running:
        if len(self.active_clusters()) > self.config.min_clusters:
            self._stop_cluster(cluster, now)
        else:
            self.draining.discard(cluster.cluster_id)
    if self.state == WarehouseState.RUNNING:
        self.scheduler.dispatch(now)
        self._maybe_schedule_suspend_check()


# ----------------------------------------------------- MultiClusterScheduler
def dispatch(self, now: float) -> None:
    """Assign queued queries to free slots; trigger scale-out if stuck."""
    wh = self.warehouse
    while self.queue:
        cluster = self._pick_cluster()
        if cluster is None:
            break
        pending = self.queue.popleft()
        wh._begin_execution(pending, cluster, now)
    if self.queue:
        self._consider_scale_out(now)


# ------------------------------------------------------------ PartitionCache
def access(self, footprint) -> float:
    """Touch a query's ``footprint``; return the hit ratio of this access."""
    if not footprint:
        return 1.0
    # Snapshot semantics: the hit set is decided against the cache state
    # at access start (insertions during the scan cannot evict a
    # partition this same query was about to read).
    entries = self._entries
    hits = len(entries.keys() & footprint)
    misses = len(footprint) - hits
    cap = self.max_partitions
    if len(entries) + misses <= cap:
        # Nothing can be evicted: load the misses (assigning a cached
        # partition leaves its place as it is) and defer the recency.
        if misses:
            for p in footprint:
                entries[p] = None
        log = self._log
        log.append(footprint)
        if len(log) > len(entries):
            self._replay()
    elif cap:
        self._replay()
        entries = self._entries
        for p in footprint:
            if p in entries:
                entries.move_to_end(p)
            else:
                entries[p] = None
                if len(entries) > cap:
                    entries.popitem(last=False)
    self.hits += hits
    self.misses += misses
    return hits / len(footprint)


_ORACLE = (
    (VirtualWarehouse, "submit", submit),
    (VirtualWarehouse, "_begin_execution", _begin_execution),
    (VirtualWarehouse, "_complete_query", _complete_query),
    (MultiClusterScheduler, "dispatch", dispatch),
    (PartitionCache, "access", access),
)


@contextlib.contextmanager
def installed():
    """Run the oracle lifecycle inside the block; the library's after it."""
    saved = [(cls, name, cls.__dict__[name]) for cls, name, _ in _ORACLE]
    try:
        for cls, name, method in _ORACLE:
            setattr(cls, name, method)
        yield
    finally:
        for cls, name, method in saved:
            setattr(cls, name, method)


def _row(record: QueryRecord, first_id: int) -> str:
    values = []
    for f in fields(record):
        value = getattr(record, f.name)
        if f.name == "query_id":
            value -= first_id  # ids come from a process-wide counter
        values.append(f"{f.name}={value!r}")
    return ",".join(values)


def snapshot(account: Account) -> dict:
    """What the two lifecycles must agree on: every QUERY_HISTORY row (each
    field's ``repr``, ids relative to the account's first), billing
    segments, warehouse events, event counters, RNG states, and each
    cluster cache's counters."""
    telemetry = account.telemetry
    history = {
        name: telemetry.query_history(name, include_overhead=True)
        for name in telemetry.warehouses()
    }
    ids = [r.query_id for rows in history.values() for r in rows]
    first_id = min(ids, default=0)
    warehouses = {}
    for name, wh in sorted(account.warehouses.items()):
        meter = wh.meter
        warehouses[name] = {
            "rows": [_row(r, first_id) for r in history.get(name, [])],
            "events": [repr(e) for e in telemetry.warehouse_events(name)],
            "billing": repr(
                (meter._starts, meter._ends, meter._rates, sorted(meter._open.items()))
            ),
            "caches": [
                (c.cluster_id, c.cache.hits, c.cache.misses, len(c.cache))
                for c in wh.clusters.values()
            ],
            "state": (wh.state, wh.queue_length, wh.running_query_count),
        }
    return {
        "warehouses": warehouses,
        "processed_events": account.sim.processed_events,
        "pending_events": account.sim.pending_events,
        "seq": repr(account.sim._seq),
        "rng": {
            name: g.bit_generator.state for name, g in sorted(account.rngs._streams.items())
        },
    }
