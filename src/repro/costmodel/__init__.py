"""The warehouse cost model (§5): analytical query replay calibrated by
machine-learned parameter estimators.

Unlike traditional query-optimizer cost models that emit unitless plan
scores, this model estimates *billable credits* directly, enabling both the
smart model's action evaluation and value-based pricing.
"""

from repro.costmodel.bytes_billed import (
    BytesBilledEstimate,
    BytesBilledModel,
    EngineComparison,
    compare_engines,
)
from repro.costmodel.clusters import (
    MINI_WINDOW_SECONDS,
    ClusterCountPredictor,
    concurrency_profile,
)
from repro.costmodel.gaps import GapModel
from repro.costmodel.latency import DEFAULT_GAMMA, LatencyScalingModel, TemplateScaling
from repro.costmodel.model import SavingsEstimate, WarehouseCostModel
from repro.costmodel.replay import QueryReplay, ReplayResult

__all__ = [
    "LatencyScalingModel",
    "TemplateScaling",
    "DEFAULT_GAMMA",
    "GapModel",
    "ClusterCountPredictor",
    "concurrency_profile",
    "MINI_WINDOW_SECONDS",
    "QueryReplay",
    "ReplayResult",
    "WarehouseCostModel",
    "SavingsEstimate",
    "BytesBilledModel",
    "BytesBilledEstimate",
    "EngineComparison",
    "compare_engines",
]
