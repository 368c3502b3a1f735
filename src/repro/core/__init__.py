"""Keebo Warehouse Optimization (KWO) — the paper's core contribution.

Action space, constraint engine, slider mapping, monitoring, actuator,
smart model, value-based pricing, and the Algorithm-1 optimization loop.
"""

from repro.common import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "repro.learning.actions": (
            "CLUSTER_DELTAS",
            "RESIZE_DELTAS",
            "SUSPEND_CHOICES",
            "Action",
            "ActionSpace",
        ),
        "repro.core.actuator": ("Actuator", "AppliedAction"),
        "repro.core.consolidation": ("ConsolidationAdvisor", "ConsolidationRecommendation"),
        "repro.core.constraints": ("ConstraintRule", "ConstraintSet"),
        "repro.core.ledger": ("LedgerEntry", "SavingsLedger"),
        "repro.core.monitoring": ("Monitor", "RealTimeFeedback"),
        "repro.core.optimizer": ("KeeboService", "OptimizerConfig", "WarehouseOptimizer"),
        "repro.core.policy_advisor": ("ScalingPolicyAdvisor",),
        "repro.core.pricing": ("Invoice", "ValueBasedPricing"),
        "repro.core.sliders": ("SliderParams", "SliderPosition", "slider_params"),
        "repro.core.smart_model": ("Decision", "DecisionKind", "SmartModel"),
    },
)
