"""Multi-cluster query scheduling and scale-out policies (§3).

The scheduler owns the warehouse-level query queue and implements
Snowflake's documented multi-cluster behaviour:

* queries run on any cluster with a free concurrency slot (least-loaded
  cluster first);
* when all slots are taken, queries queue;
* under the **STANDARD** policy a new cluster is started as soon as a query
  queues (successive starts spaced ~20 s apart);
* under the **ECONOMY** policy a new cluster starts only when the queued
  work is estimated to keep a new cluster busy for ~6 minutes;
* clusters are retired (scale-in) after the load has been low enough to
  redistribute for a few consecutive checks — longer under ECONOMY.

The scheduler never starts/stops clusters itself; it asks the warehouse,
which owns billing and lifecycle.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.warehouse.cluster import ClusterState
from repro.warehouse.types import ScalingPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.warehouse.warehouse import VirtualWarehouse, _PendingQuery

#: Seconds between successive scale-out cluster starts.
STANDARD_SCALE_OUT_SPACING = 20.0
ECONOMY_SCALE_OUT_SPACING = 60.0
#: ECONOMY starts a cluster only if queued work would keep it busy this long.
ECONOMY_MIN_BUSY_SECONDS = 360.0
#: Consecutive low-load policy checks before retiring a cluster.
STANDARD_SCALE_IN_CHECKS = 3
ECONOMY_SCALE_IN_CHECKS = 12
#: Load headroom required before scale-in: the remaining clusters must be
#: able to absorb current load at <= this fraction of their slots.
SCALE_IN_LOAD_FRACTION = 0.8


class MultiClusterScheduler:
    """Queueing + scale-out/in decisions for one warehouse."""

    def __init__(self, warehouse: "VirtualWarehouse"):
        self.warehouse = warehouse
        self.queue: deque["_PendingQuery"] = deque()
        self._last_scale_out_at = -1e18
        self._low_load_checks = 0

    # ----------------------------------------------------------------- queue
    def __len__(self) -> int:
        return len(self.queue)

    def enqueue(self, pending: "_PendingQuery") -> None:
        self.queue.append(pending)

    def dispatch(self, now: float) -> None:
        """Assign queued queries to free slots; trigger scale-out if stuck."""
        wh = self.warehouse
        while self.queue:
            cluster = self._pick_cluster()
            if cluster is None:
                break
            pending = self.queue.popleft()
            wh._begin_execution(pending.request, pending.record, cluster, now)
        if self.queue:
            self._consider_scale_out(now)

    def _pick_cluster(self):
        """Least-loaded RUNNING, non-draining cluster with a free slot, lowest
        id on ties: the first minimum of ``(load, cluster_id)`` in
        ``clusters`` order, found in one pass."""
        wh = self.warehouse
        draining = wh.draining
        best = best_key = None
        for c in wh.clusters.values():
            n, slots = len(c.running), c.max_concurrency
            if n < slots and c.state is ClusterState.RUNNING and c.cluster_id not in draining:
                key = (n / slots, c.cluster_id)
                if best is None or key < best_key:
                    best, best_key = c, key
        return best

    # ------------------------------------------------------------- scale out
    def _consider_scale_out(self, now: float) -> None:
        wh = self.warehouse
        config = wh.config
        if wh.cluster_count_started() >= config.max_clusters:
            return
        spacing = (
            STANDARD_SCALE_OUT_SPACING
            if config.scaling_policy == ScalingPolicy.STANDARD
            else ECONOMY_SCALE_OUT_SPACING
        )
        if now - self._last_scale_out_at < spacing:
            return
        if config.scaling_policy == ScalingPolicy.ECONOMY:
            # Estimate queued work from the recent average execution time;
            # only scale out if a fresh cluster would stay busy long enough.
            est_work = len(self.queue) * wh.recent_execution_seconds()
            if est_work < ECONOMY_MIN_BUSY_SECONDS:
                return
        self._last_scale_out_at = now
        wh._start_additional_cluster(now)

    # -------------------------------------------------------------- scale in
    def policy_tick(self, now: float) -> None:
        """Periodic check: retire clusters when load stays low (scale-in).

        Also re-attempts dispatch, which doubles as the retry path after a
        cluster finishes starting.
        """
        self.dispatch(now)
        wh = self.warehouse
        config = wh.config
        active = wh.active_clusters()
        n_active = len(active)
        if n_active <= config.min_clusters:
            self._low_load_checks = 0
            return
        running_queries = sum(len(c.running) for c in active)
        reduced_capacity = (n_active - 1) * config.max_concurrency
        redistributable = (
            not self.queue
            and running_queries <= SCALE_IN_LOAD_FRACTION * reduced_capacity
        )
        if redistributable:
            self._low_load_checks += 1
        else:
            self._low_load_checks = 0
            return
        needed_checks = (
            STANDARD_SCALE_IN_CHECKS
            if config.scaling_policy == ScalingPolicy.STANDARD
            else ECONOMY_SCALE_IN_CHECKS
        )
        if self._low_load_checks >= needed_checks:
            self._low_load_checks = 0
            wh._retire_one_cluster(now)

    def reset(self) -> None:
        """Forget policy state (on suspend)."""
        self._low_load_checks = 0
        self._last_scale_out_at = -1e18
