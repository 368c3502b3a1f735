"""repro — a full reproduction of "Making Data Clouds Smarter at Keebo:
Automated Warehouse Optimization using Data Learning" (SIGMOD-Companion '23).

The package layers four subsystems (see DESIGN.md):

* :mod:`repro.warehouse` — a discrete-event Snowflake-like CDW simulator
  (the proprietary substrate, rebuilt);
* :mod:`repro.workloads` — synthetic ETL / BI / ad-hoc workload generators
  (the production traces, substituted);
* :mod:`repro.costmodel` — the §5 warehouse cost model (query replay +
  learned parameter estimation);
* :mod:`repro.learning` + :mod:`repro.core` — the §6 data-learning stack
  and the KWO product itself (smart models, constraints, sliders,
  monitoring, actuator, value-based pricing, Algorithm 1).

Quickstart::

    from repro import Account, KeeboService, WarehouseConfig

    account = Account(seed=7)
    account.create_warehouse("ANALYTICS_WH", WarehouseConfig())
    ...  # drive a workload, then:
    service = KeeboService(account)
    service.onboard_warehouse("ANALYTICS_WH")
"""

from repro.common import facade

__version__ = "0.1.0"

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "repro.warehouse.account": ("Account",),
        "repro.warehouse.api": ("CloudWarehouseClient",),
        "repro.warehouse.config": ("WarehouseConfig",),
        "repro.warehouse.types": ("WarehouseSize", "ScalingPolicy"),
        "repro.costmodel.model": ("WarehouseCostModel",),
        "repro.core.optimizer": ("KeeboService", "WarehouseOptimizer", "OptimizerConfig"),
        "repro.core.sliders": ("SliderPosition",),
        "repro.core.constraints": ("ConstraintRule", "ConstraintSet"),
    },
)
