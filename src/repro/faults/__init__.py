"""Deterministic fault injection for the CDW simulator (docs/ROBUSTNESS.md).

Declare *what* goes wrong in a :class:`FaultPlan`, wrap the vendor client
in a :class:`FaultingWarehouseClient`, and every consumer — actuator,
monitor, optimizer — must survive the weather.  Seeded through the run's
:class:`~repro.common.rng.RngRegistry`, so chaos runs are byte-reproducible.
"""

from repro.common import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "repro.faults.client": ("FaultingWarehouseClient",),
        "repro.faults.plan": (
            "ALL_OPERATIONS",
            "BILLING_OPERATIONS",
            "FaultKind",
            "FaultPlan",
            "FaultSpec",
            "STATUS_OPERATIONS",
            "TELEMETRY_OPERATIONS",
            "WRITE_OPERATIONS",
        ),
    },
)
