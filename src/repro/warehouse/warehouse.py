"""The virtual warehouse: state machine tying together clusters, cache,
billing, queueing and auto-suspend.

Behavioural model (each piece is a lever the paper's KWO pulls):

* **Auto-suspend / auto-resume** — after ``auto_suspend_seconds`` of no
  running or queued queries the warehouse suspends: billing stops, all
  local caches drop.  The next submission resumes it after a short,
  jittered provisioning delay.  Every cluster start bills a 60 s minimum.
* **Resizing** — takes effect for *new* query starts; in-flight queries
  finish at their original speed.  Resizing re-provisions servers, so local
  caches are lost and the billing rate changes from the resize instant.
* **Multi-cluster scale-out** — delegated to
  :class:`~repro.warehouse.scheduler.MultiClusterScheduler`.
* **Latency model** — a query's execution time is
  ``base_work / speedup**gamma * cache_penalty * contention * noise``:
  bigger warehouses speed queries up sub-linearly per template, cold cache
  reads slow them down, and slot contention adds a mild degradation.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from repro.common.errors import WarehouseError
from repro.common.simtime import format_time
from repro.warehouse.billing import BillingMeter
from repro.warehouse.cluster import Cluster, ClusterState
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.engine import Event, PeriodicController, Simulation
from repro.warehouse.queries import QueryRecord, QueryRequest, next_query_id
from repro.warehouse.scheduler import MultiClusterScheduler
from repro.warehouse.telemetry import ConfigSnapshot, TelemetryStore, WarehouseEvent
from repro.warehouse.types import WarehouseSize, WarehouseState

#: Mean provisioning delay when a suspended warehouse resumes.
RESUME_DELAY_MEAN = 2.0
#: Provisioning delay for an additional scale-out cluster.
CLUSTER_START_DELAY = 2.0
#: Per-concurrent-query latency degradation (10 concurrent ~ +45%).
CONTENTION_SLOWDOWN = 0.05
#: Lognormal sigma of run-to-run latency noise.
LATENCY_NOISE_SIGMA = 0.06
#: Policy tick spacing while the warehouse is running.  The tick parks
#: whenever it cannot act: while the warehouse is suspended or resuming, and
#: after a fire that leaves nothing queued and no cluster above a
#: one-cluster floor.  It is re-armed on the grid anchored at creation
#: (``PeriodicController.rearm``) when a submit leaves a queue, and when a
#: resume, a finished cluster start or an ``alter`` leaves it able to act.
POLICY_TICK_SECONDS = 30.0
#: Auto-suspend enforcement is lazy: the service sweeps for expired idle
#: timers on a coarse grid, so a warehouse suspends at the first sweep *at or
#: after* its deadline (Snowflake documents that suspension "may take a few
#: extra seconds to minutes").  Cost models that assume exact deadlines pick
#: up a small per-burst error from this — largest, in relative terms, for
#: rarely-used warehouses (the paper's Figure 5 Warehouse3 effect).
SUSPEND_SWEEP_SECONDS = 60.0


@dataclass(slots=True)
class _PendingQuery:
    """Internal pairing of the ground-truth request with its telemetry row."""

    request: QueryRequest
    record: QueryRecord


class VirtualWarehouse:
    """One simulated virtual warehouse inside an account."""

    def __init__(
        self,
        sim: Simulation,
        name: str,
        config: WarehouseConfig,
        telemetry: TelemetryStore,
        rng: np.random.Generator,
        initially_suspended: bool = True,
    ):
        self.sim = sim
        self.name = name
        self.config = config
        self.telemetry = telemetry
        self.rng = rng
        self.meter = BillingMeter(name)
        self.scheduler = MultiClusterScheduler(self)
        self.state = WarehouseState.SUSPENDED
        self.clusters: dict[int, Cluster] = {}
        self.draining: set[int] = set()
        #: Queries executing on any cluster: +1 when one starts, -1 when it
        #: completes (the sum of ``len(c.running)`` over the clusters).
        self._running = 0
        self.last_activity = sim.now
        self._suspend_handle: Event | None = None
        self._resume_handle: Event | None = None
        self._cluster_start_handles: dict[int, Event] = {}
        self._next_cluster_id = 1
        self._exec_ewma = 30.0  # seconds; prior before any query completes
        self._policy_controller = PeriodicController(
            sim, POLICY_TICK_SECONDS, self._policy_tick
        )
        self.telemetry.record_config(
            name, ConfigSnapshot(sim.now, config, initiator="customer")
        )
        self.telemetry.record_event(
            WarehouseEvent(sim.now, name, "create", "customer", {"config": config.describe()})
        )
        if not initially_suspended:
            # The one inclusive re-arm: a warehouse created running ticks at
            # its creation instant.
            self._policy_controller.start(sim.now)
            self._complete_resume()

    # ------------------------------------------------------------ inspection
    def active_clusters(self) -> list[Cluster]:
        """Clusters currently RUNNING (billing)."""
        return [c for c in self.clusters.values() if c.state == ClusterState.RUNNING]

    def cluster_count_started(self) -> int:
        """RUNNING plus STARTING clusters (capacity already committed)."""
        return sum(
            1
            for c in self.clusters.values()
            if c.state in (ClusterState.RUNNING, ClusterState.STARTING)
        )

    @property
    def queue_length(self) -> int:
        return len(self.scheduler)

    @property
    def running_query_count(self) -> int:
        return self._running

    @property
    def is_idle(self) -> bool:
        return not self._running and not self.scheduler.queue

    def recent_execution_seconds(self) -> float:
        """EWMA of recent execution times (drives ECONOMY scale-out)."""
        return self._exec_ewma

    # ------------------------------------------------------------ submission
    def submit(self, request: QueryRequest, is_overhead: bool = False) -> QueryRecord:
        """Accept a query at the current simulation time.

        A query that finds the warehouse running, nothing queued and a
        cluster free starts at once; it would be the queue's only entry,
        and the dispatch loop would start it on the same cluster and leave
        nothing queued.
        """
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
        self.last_activity = now
        self._cancel_suspend_check()
        scheduler = self.scheduler
        if self.state is WarehouseState.RUNNING and not scheduler.queue:
            cluster = scheduler._pick_cluster()
            if cluster is not None:
                self._begin_execution(request, record, cluster, now)
                return record
        scheduler.enqueue(_PendingQuery(request, record))
        if self.state == WarehouseState.SUSPENDED:
            self._begin_resume()
        elif self.state == WarehouseState.RUNNING:
            scheduler.dispatch(now)
            # Only the queue changed, and a parked tick stays parked while
            # it is empty (see _wake_policy_tick).
            if scheduler.queue:
                self._policy_controller.rearm(now)
        # RESUMING: the queue drains when the resume completes.
        return record

    # ---------------------------------------------------------------- resume
    def _begin_resume(self) -> None:
        self.state = WarehouseState.RESUMING
        delay = max(0.5, self.rng.normal(RESUME_DELAY_MEAN, 0.3 * RESUME_DELAY_MEAN))
        self._resume_handle = self.sim.schedule_in(delay, self._complete_resume)

    def _complete_resume(self) -> None:
        self.state = WarehouseState.RUNNING
        self._resume_handle = None
        self.telemetry.record_event(
            WarehouseEvent(self.sim.now, self.name, "resume", "system", {})
        )
        for _ in range(self.config.min_clusters):
            self._start_cluster_now()
        self.scheduler.dispatch(self.sim.now)
        self._wake_policy_tick()
        self._maybe_schedule_suspend_check()

    # --------------------------------------------------------------- cluster
    def _next_ordinal(self) -> int:
        """Lowest unused CLUSTER_NUMBER among started clusters."""
        taken = {
            c.ordinal
            for c in self.clusters.values()
            if c.state in (ClusterState.RUNNING, ClusterState.STARTING)
        }
        ordinal = 1
        while ordinal in taken:
            ordinal += 1
        return ordinal

    def _start_cluster_now(self) -> Cluster:
        cluster = Cluster(
            cluster_id=self._next_cluster_id,
            size=self.config.size,
            max_concurrency=self.config.max_concurrency,
            ordinal=self._next_ordinal(),
            state=ClusterState.RUNNING,
            started_at=self.sim.now,
            last_busy_at=self.sim.now,
        )
        self._next_cluster_id += 1
        self.clusters[cluster.cluster_id] = cluster
        self.meter.open_segment(cluster.cluster_id, self.sim.now, self.config.size)
        return cluster

    def _start_additional_cluster(self, now: float) -> None:
        """Scale-out: provision one more cluster after a start delay."""
        if self.state != WarehouseState.RUNNING:
            return
        if self.cluster_count_started() >= self.config.max_clusters:
            return
        cluster = Cluster(
            cluster_id=self._next_cluster_id,
            size=self.config.size,
            max_concurrency=self.config.max_concurrency,
            ordinal=self._next_ordinal(),
            state=ClusterState.STARTING,
            started_at=now,
        )
        self._next_cluster_id += 1
        self.clusters[cluster.cluster_id] = cluster
        delay = max(0.5, self.rng.normal(CLUSTER_START_DELAY, 0.3 * CLUSTER_START_DELAY))
        handle = self.sim.schedule_in(delay, lambda: self._finish_cluster_start(cluster))
        self._cluster_start_handles[cluster.cluster_id] = handle

    def _finish_cluster_start(self, cluster: Cluster) -> None:
        self._cluster_start_handles.pop(cluster.cluster_id, None)
        if self.state != WarehouseState.RUNNING:
            # Warehouse suspended while the cluster was provisioning.
            self.clusters.pop(cluster.cluster_id, None)
            return
        cluster.state = ClusterState.RUNNING
        cluster.last_busy_at = self.sim.now
        self.meter.open_segment(cluster.cluster_id, self.sim.now, self.config.size)
        self._wake_policy_tick()
        self.scheduler.dispatch(self.sim.now)

    def _retire_one_cluster(self, now: float) -> None:
        """Scale-in: stop the newest empty cluster beyond min_clusters."""
        active = self.active_clusters()
        if len(active) <= self.config.min_clusters:
            return
        empties = [c for c in active if not c.running]
        if not empties:
            # Mark the newest cluster draining; it stops when it empties.
            newest = max(active, key=lambda c: c.cluster_id)
            self.draining.add(newest.cluster_id)
            return
        victim = max(empties, key=lambda c: c.cluster_id)
        self._stop_cluster(victim, now)

    def _stop_cluster(self, cluster: Cluster, now: float) -> None:
        if cluster.running:
            raise WarehouseError(f"cannot stop busy cluster {cluster.cluster_id}")
        if cluster.state == ClusterState.RUNNING:
            self.meter.close_segment(cluster.cluster_id, now)
        cluster.state = ClusterState.STOPPED
        cluster.drop_cache()
        self.draining.discard(cluster.cluster_id)
        self.clusters.pop(cluster.cluster_id, None)

    # ------------------------------------------------------------- execution
    def _begin_execution(
        self, request: QueryRequest, record: QueryRecord, cluster: Cluster, now: float
    ) -> None:
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
        self.sim.schedule(now + duration, lambda: self._complete_query(record, cluster))

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
            if self.scheduler.queue:
                self.scheduler.dispatch(now)
            # Only a completion that leaves the warehouse idle can arm a check.
            if not self._running and not self.scheduler.queue:
                self._maybe_schedule_suspend_check()

    # ---------------------------------------------------------- auto-suspend
    def _maybe_schedule_suspend_check(self) -> None:
        if not self.is_idle or self.state != WarehouseState.RUNNING:
            return
        if self.config.auto_suspend_seconds <= 0:
            return
        due = self.last_activity + self.config.auto_suspend_seconds
        # Lazy enforcement: round the deadline up to the next sweep.
        due = max(math.ceil(due / SUSPEND_SWEEP_SECONDS) * SUSPEND_SWEEP_SECONDS, self.sim.now)
        handle = self._suspend_handle
        if handle is not None:
            if handle.time == due:
                return  # unchanged: keep the pending check and its tie order
            handle.cancel()
        self._suspend_handle = self.sim.schedule(due, self._suspend_check)

    def _cancel_suspend_check(self) -> None:
        if self._suspend_handle is not None:
            self._suspend_handle.cancel()
            self._suspend_handle = None

    def _suspend_check(self) -> None:
        self._suspend_handle = None
        if self.state != WarehouseState.RUNNING or not self.is_idle:
            return
        if self.sim.now - self.last_activity + 1e-9 >= self.config.auto_suspend_seconds:
            self.suspend(initiator="system")
        else:
            self._maybe_schedule_suspend_check()

    def suspend(self, initiator: str = "customer") -> None:
        """Suspend now: stop billing, drop every cluster's cache."""
        if self.state == WarehouseState.SUSPENDED:
            return
        if not self.is_idle:
            # A queued query would be stranded: a suspended warehouse only
            # resumes on its next submit, however long that takes.
            raise WarehouseError(f"cannot suspend {self.name}: queries are running or queued")
        now = self.sim.now
        for handle in self._cluster_start_handles.values():
            handle.cancel()
        self._cluster_start_handles.clear()
        if self._resume_handle is not None:
            self._resume_handle.cancel()
            self._resume_handle = None
        for cluster in list(self.clusters.values()):
            if cluster.state == ClusterState.RUNNING:
                self.meter.close_segment(cluster.cluster_id, now)
            cluster.state = ClusterState.STOPPED
            cluster.drop_cache()
        self.clusters.clear()
        self.draining.clear()
        self.scheduler.reset()
        self.state = WarehouseState.SUSPENDED
        self._policy_controller.park()
        self._cancel_suspend_check()
        self.telemetry.record_event(WarehouseEvent(now, self.name, "suspend", initiator, {}))

    def resume(self, initiator: str = "customer") -> None:
        """Explicit resume (queries also auto-resume on submit)."""
        if self.state != WarehouseState.SUSPENDED:
            return
        self.telemetry.record_event(
            WarehouseEvent(self.sim.now, self.name, "resume_requested", initiator, {})
        )
        self._begin_resume()

    # ----------------------------------------------------------- alteration
    def alter(self, initiator: str = "customer", **changes) -> WarehouseConfig:
        """Apply ALTER WAREHOUSE-style changes; returns the new config.

        Supported keys mirror :class:`WarehouseConfig` fields.  Resizes
        reprice open billing segments and drop caches; auto-suspend changes
        re-arm the idle timer; cluster-bound changes start or drain clusters
        as needed.
        """
        old = self.config
        new = old.with_changes(**changes)
        if new == old:
            return old
        now = self.sim.now
        self.config = new
        self.telemetry.record_config(self.name, ConfigSnapshot(now, new, initiator))
        self.telemetry.record_event(
            WarehouseEvent(
                now,
                self.name,
                "alter",
                initiator,
                {"changes": {k: _event_value(v) for k, v in changes.items()}},
            )
        )
        if new.size != old.size:
            self._apply_resize(new.size, now, initiator)
        if new.auto_suspend_seconds != old.auto_suspend_seconds:
            self._cancel_suspend_check()
            self._maybe_schedule_suspend_check()
        if self.state == WarehouseState.RUNNING:
            self._reconcile_cluster_bounds(now)
            self._wake_policy_tick()
        return new

    def _apply_resize(self, size: WarehouseSize, now: float, initiator: str) -> None:
        for cluster in self.clusters.values():
            was_running = cluster.state == ClusterState.RUNNING
            cluster.apply_resize(size)
            if was_running:
                self.meter.reprice_segment(cluster.cluster_id, now, size)
        self.telemetry.record_event(
            WarehouseEvent(now, self.name, "resize", initiator, {"size": size.label})
        )

    def _reconcile_cluster_bounds(self, now: float) -> None:
        """Enforce min/max cluster bounds after an alter."""
        while len(self.active_clusters()) < self.config.min_clusters:
            self._start_cluster_now()
        while self.cluster_count_started() > self.config.max_clusters:
            active = self.active_clusters()
            empties = [c for c in active if not c.running]
            if empties:
                self._stop_cluster(max(empties, key=lambda c: c.cluster_id), now)
            else:
                busy = [c for c in active if c.cluster_id not in self.draining]
                if not busy:
                    break
                self.draining.add(max(busy, key=lambda c: c.cluster_id).cluster_id)
                break

    # ----------------------------------------------------------------- ticks
    def _policy_tick(self, now: float) -> None:
        # Only a RUNNING warehouse holds a pending tick (see
        # POLICY_TICK_SECONDS).
        self.scheduler.policy_tick(now)
        self._maybe_schedule_suspend_check()
        if not self._policy_tick_can_act():
            self._policy_controller.park()

    def _policy_tick_can_act(self) -> bool:
        """Could a policy tick change anything?  With nothing queued it
        cannot dispatch or scale out, and with no cluster above the floor it
        cannot scale in.  A floor above one counts as able to act: an
        ``alter`` that lowers it at a grid instant is seen by that instant's
        tick, and :meth:`PeriodicController.rearm` only resumes strictly
        after now."""
        return (
            bool(self.scheduler.queue)
            or self.config.min_clusters > 1
            or len(self.active_clusters()) > 1
        )

    def _wake_policy_tick(self) -> None:
        """Re-arm the parked policy tick on its grid if it could act."""
        if self._policy_tick_can_act():
            self._policy_controller.rearm(self.sim.now)

    def shutdown(self) -> None:
        """Stop periodic work for good (end of simulation): a later resume
        does not re-arm the policy tick."""
        self._policy_controller.stop()

    def __repr__(self) -> str:
        return (
            f"VirtualWarehouse({self.name!r}, {self.state.value}, "
            f"{self.config.describe()}, t={format_time(self.sim.now)})"
        )


def _event_value(value):
    """Render config values JSON-ish for event detail dicts."""
    if isinstance(value, WarehouseSize):
        return value.label
    if hasattr(value, "value"):
        return value.value
    return value
