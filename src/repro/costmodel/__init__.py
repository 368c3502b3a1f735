"""The warehouse cost model (§5): analytical query replay calibrated by
machine-learned parameter estimators.

Unlike traditional query-optimizer cost models that emit unitless plan
scores, this model estimates *billable credits* directly, enabling both the
smart model's action evaluation and value-based pricing.
"""

from repro.common import facade

__getattr__, __dir__, __all__ = facade(
    __name__,
    {
        "repro.costmodel.bytes_billed": (
            "BytesBilledEstimate",
            "BytesBilledModel",
            "EngineComparison",
            "compare_engines",
        ),
        "repro.costmodel.clusters": (
            "MINI_WINDOW_SECONDS",
            "ClusterCountPredictor",
            "concurrency_profile",
        ),
        "repro.costmodel.gaps": ("GapModel",),
        "repro.costmodel.latency": (
            "DEFAULT_GAMMA",
            "LatencyScalingModel",
            "TemplateScaling",
        ),
        "repro.costmodel.model": ("SavingsEstimate", "WarehouseCostModel"),
        "repro.costmodel.replay": ("QueryReplay", "ReplayResult"),
    },
)
