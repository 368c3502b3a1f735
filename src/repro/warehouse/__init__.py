"""The cloud data warehouse simulator substrate.

A discrete-event model of a Snowflake-like CDW: virtual warehouses with
T-shirt sizes, per-second billing (60 s minimums, hourly rollups),
auto-suspend/resume with cache-drop semantics, multi-cluster scale-out
policies, query queueing, a vendor-style client API and ACCOUNT_USAGE-style
telemetry views.  See DESIGN.md §2 for the substitution rationale.
"""

from repro.common import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "repro.warehouse.account": ("Account", "OverheadMeter"),
        "repro.warehouse.api": ("CloudWarehouseClient", "WarehouseInfo"),
        "repro.warehouse.billing": (
            "MINIMUM_BILLED_SECONDS",
            "BillingMeter",
            "UsageSegment",
        ),
        "repro.warehouse.cache": ("PARTITION_BYTES", "PartitionCache"),
        "repro.warehouse.cluster": ("Cluster", "ClusterState"),
        "repro.warehouse.config": ("MAX_CLUSTER_COUNT", "WarehouseConfig"),
        "repro.warehouse.engine": ("PeriodicController", "Simulation", "SimulationError"),
        "repro.warehouse.queries": (
            "QueryRecord",
            "QueryRequest",
            "QueryTemplate",
            "hash_text",
        ),
        "repro.warehouse.scheduler": ("MultiClusterScheduler",),
        "repro.warehouse.telemetry": ("ConfigSnapshot", "TelemetryStore", "WarehouseEvent"),
        "repro.warehouse.types": ("ScalingPolicy", "WarehouseSize", "WarehouseState"),
        "repro.warehouse.warehouse": ("VirtualWarehouse",),
    },
)
