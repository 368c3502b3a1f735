"""Configuration what-if sweeps over a fitted cost model.

A thin, reusable layer over :class:`~repro.costmodel.model.WarehouseCostModel`
for the question data teams ask constantly (and the §5 cost model exists to
answer): *price this telemetry under a grid of configurations*.  Used by the
``cost_model_whatif`` example and the suspend-trade-off analysis; also handy
interactively:

    model = WarehouseCostModel(client, "WH").fit(window)
    points = sweep_configs(model, window, base_config)
    best = cheapest_within_latency(points, max_latency_factor=1.2)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.common.errors import ConfigurationError
from repro.common.simtime import Window
from repro.costmodel.model import WarehouseCostModel
from repro.costmodel.replay import ReplayResult
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.types import WarehouseSize

DEFAULT_SIZES = (
    WarehouseSize.XS,
    WarehouseSize.S,
    WarehouseSize.M,
    WarehouseSize.L,
    WarehouseSize.XL,
)
DEFAULT_SUSPENDS = (60.0, 300.0, 600.0)


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated configuration."""

    config: WarehouseConfig
    result: ReplayResult
    #: Average latency relative to the reference configuration's replay.
    latency_factor: float

    @property
    def credits(self) -> float:
        return self.result.credits


def sweep_configs(
    model: WarehouseCostModel,
    window: Window,
    reference: WarehouseConfig,
    sizes: Sequence[WarehouseSize] = DEFAULT_SIZES,
    suspends: Sequence[float] = DEFAULT_SUSPENDS,
    max_clusters: Iterable[int] | None = None,
) -> list[SweepPoint]:
    """Replay ``window`` under the size × suspend (× cluster) grid.

    The reference configuration's replay defines latency factor 1.0; it is
    included in the grid whether or not it lies on it.
    """
    if not sizes or not suspends:
        raise ConfigurationError("sweep needs at least one size and one suspend value")
    snapshot = model.snapshot(window)
    base = snapshot.cost(reference)
    reference_latency = max(base.avg_latency, 1e-9)
    cluster_options = list(max_clusters) if max_clusters else [reference.max_clusters]
    points = [SweepPoint(reference, base, 1.0)]
    seen = {reference}
    for size in sizes:
        for suspend in suspends:
            for clusters in cluster_options:
                config = reference.with_changes(
                    size=size,
                    auto_suspend_seconds=float(suspend),
                    max_clusters=clusters,
                    min_clusters=min(reference.min_clusters, clusters),
                )
                if config in seen:
                    continue
                seen.add(config)
                result = snapshot.cost(config)
                points.append(
                    SweepPoint(config, result, result.avg_latency / reference_latency)
                )
    return points


def cheapest_within_latency(
    points: list[SweepPoint], max_latency_factor: float
) -> SweepPoint:
    """The cheapest point whose predicted latency stays within the budget."""
    affordable = [p for p in points if p.latency_factor <= max_latency_factor]
    if not affordable:
        raise ConfigurationError(
            f"no configuration stays within latency factor {max_latency_factor}"
        )
    return min(affordable, key=lambda p: p.credits)


def pareto_frontier(points: list[SweepPoint]) -> list[SweepPoint]:
    """Points not dominated in (credits, latency), sorted by credits.

    A point dominates another when it is no worse on both axes and strictly
    better on one — the frontier is what the paper's Figure 7 claims KWO's
    slider walks ("offering Pareto efficiency in managing warehouses").
    """
    ordered = sorted(points, key=lambda p: (p.credits, p.latency_factor))
    frontier: list[SweepPoint] = []
    best_latency = float("inf")
    for point in ordered:
        if point.latency_factor < best_latency - 1e-12:
            frontier.append(point)
            best_latency = point.latency_factor
    return frontier
