"""A single compute cluster inside a virtual warehouse.

Clusters are the unit of scale-out (multi-cluster warehouses) and of
billing.  Each cluster has a fixed number of concurrency slots; queries
beyond the slots queue at the warehouse scheduler.  Each cluster owns its
local partition cache, which is dropped whenever the cluster stops (suspend)
or the warehouse is resized (servers are re-provisioned).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.errors import WarehouseError
from repro.warehouse.cache import PartitionCache
from repro.warehouse.queries import QueryRecord
from repro.warehouse.types import WarehouseSize


class ClusterState(enum.Enum):
    STOPPED = "stopped"
    STARTING = "starting"
    RUNNING = "running"


@dataclass
class Cluster:
    """Runtime state of one cluster (billing lives in the warehouse meter)."""

    cluster_id: int
    size: WarehouseSize
    max_concurrency: int
    #: Snowflake-style CLUSTER_NUMBER: 1 for the warehouse's first concurrent
    #: cluster, 2 for the second, etc.  Unlike ``cluster_id`` (globally
    #: unique), ordinals are reused across restarts and are what telemetry
    #: exposes — the cost model reads peak ordinals as concurrency evidence.
    ordinal: int = 1
    state: ClusterState = ClusterState.STOPPED
    started_at: float = 0.0
    last_busy_at: float = 0.0
    cache: PartitionCache = field(init=False)
    running: dict[int, QueryRecord] = field(default_factory=dict)

    def __post_init__(self):
        if self.max_concurrency < 1:
            raise WarehouseError("max_concurrency must be >= 1")
        self.cache = PartitionCache(self.size.cache_capacity_bytes)

    @property
    def free_slots(self) -> int:
        return max(0, self.max_concurrency - len(self.running))

    def begin_query(self, record: QueryRecord, now: float) -> None:
        if self.state != ClusterState.RUNNING:
            raise WarehouseError(f"cluster {self.cluster_id} is not running")
        if len(self.running) >= self.max_concurrency:
            raise WarehouseError(f"cluster {self.cluster_id} has no free slots")
        self.running[record.query_id] = record
        self.last_busy_at = now

    def finish_query(self, query_id: int, now: float) -> QueryRecord:
        record = self.running.pop(query_id, None)
        if record is None:
            raise WarehouseError(f"query {query_id} is not running on cluster {self.cluster_id}")
        self.last_busy_at = now
        return record

    def apply_resize(self, size: WarehouseSize) -> None:
        """Re-provision at a new size: capacity changes, local cache is lost.

        Running queries keep executing at the duration computed when they
        started (Snowflake lets in-flight queries finish on the old servers).
        """
        self.size = size
        self.cache = PartitionCache(size.cache_capacity_bytes)

    def drop_cache(self) -> None:
        self.cache.clear()
