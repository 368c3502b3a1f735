"""Warehouse consolidation analysis (§1's optimization catalogue).

Among the warehouse-level decisions the paper lists is "consolidating
multiple warehouses into one": organizations accumulate per-team
warehouses that are each mostly idle, and paying two sets of auto-suspend
tails and 60-second minimums for workloads that would comfortably share one
warehouse is pure waste.

The advisor is a what-if application of the §5 cost model:

1. fit the parameter estimators on each candidate warehouse's telemetry;
2. for every pair, merge the two query histories on one timeline and replay
   them under candidate target configurations (each member's original
   configuration, and one size up of the larger — headroom for the combined
   load);
3. compare the merged replay's credits against the sum of the members'
   separate replays, and its counterfactual latency against each member's
   own baseline;
4. recommend the cheapest merge whose predicted per-member latency factor
   stays within the tolerance.

Like everything else in KWO, this consumes only telemetry metadata.  The
output is a recommendation (consolidation moves user traffic, so unlike
knob changes it is *not* auto-applied — it needs connection-string changes
only the customer can make).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.common.errors import ConfigurationError
from repro.common.simtime import Window
from repro.costmodel.clusters import ClusterCountPredictor
from repro.costmodel.gaps import GapModel
from repro.costmodel.latency import LatencyScalingModel
from repro.costmodel.replay import QueryReplay, ReplayHistory, ReplayResult
from repro.warehouse.api import CloudWarehouseClient
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.queries import QueryRecord


@dataclass(frozen=True)
class ConsolidationRecommendation:
    """One evaluated merge of two warehouses."""

    warehouses: tuple[str, str]
    target_config: WarehouseConfig
    separate_credits: float
    merged_credits: float
    #: Predicted avg-latency factor per member warehouse (vs its own config).
    latency_factors: dict[str, float]

    @property
    def savings_credits(self) -> float:
        return self.separate_credits - self.merged_credits

    @property
    def savings_fraction(self) -> float:
        if self.separate_credits <= 0:
            return 0.0
        return self.savings_credits / self.separate_credits

    @property
    def worst_latency_factor(self) -> float:
        return max(self.latency_factors.values(), default=1.0)

    def describe(self) -> str:
        a, b = self.warehouses
        return (
            f"merge {a} + {b} onto {self.target_config.describe()}: "
            f"{self.separate_credits:.1f} -> {self.merged_credits:.1f} credits "
            f"({self.savings_fraction:+.1%}), worst latency x{self.worst_latency_factor:.2f}"
        )


class ConsolidationAdvisor:
    """Finds profitable warehouse merges from telemetry."""

    def __init__(
        self,
        client: CloudWarehouseClient,
        max_latency_factor: float = 1.15,
        min_savings_fraction: float = 0.05,
    ):
        self.client = client
        self.max_latency_factor = max_latency_factor
        self.min_savings_fraction = min_savings_fraction

    # ------------------------------------------------------------- analysis
    def analyze(
        self, warehouses: list[str], window: Window
    ) -> list[ConsolidationRecommendation]:
        """Evaluate all pairs; return profitable, latency-safe merges sorted
        by savings (best first)."""
        if len(warehouses) < 2:
            raise ConfigurationError("consolidation needs at least two warehouses")
        histories = {
            name: self.client.query_history(name, window) for name in warehouses
        }
        configs = {name: self.client.current_config(name) for name in warehouses}
        recommendations = []
        for a, b in itertools.combinations(warehouses, 2):
            recommendation = self._evaluate_pair(
                a, b, histories[a], histories[b], configs[a], configs[b], window
            )
            if recommendation is None:
                continue
            if recommendation.savings_fraction < self.min_savings_fraction:
                continue
            if recommendation.worst_latency_factor > self.max_latency_factor:
                continue
            recommendations.append(recommendation)
        return sorted(recommendations, key=lambda r: -r.savings_credits)

    def _evaluate_pair(
        self,
        a: str,
        b: str,
        records_a: list[QueryRecord],
        records_b: list[QueryRecord],
        config_a: WarehouseConfig,
        config_b: WarehouseConfig,
        window: Window,
    ) -> ConsolidationRecommendation | None:
        if not records_a or not records_b:
            return None
        merged = sorted(records_a + records_b, key=lambda r: r.arrival_time)
        replay = self._fit_replay(merged, config_a if config_a.size >= config_b.size else config_b)
        # One history per workload: its prep and per-size stages are shared
        # by every config it is replayed under below.
        history_a = replay.history(records_a, window)
        history_b = replay.history(records_b, window)
        history_merged = replay.history(merged, window)
        separate = history_a.cost(config_a).credits + history_b.cost(config_b).credits
        best: ConsolidationRecommendation | None = None
        for target in self._candidate_targets(config_a, config_b):
            merged_result = history_merged.cost(target)
            factors = {
                a: self._latency_factor(history_a, config_a, target),
                b: self._latency_factor(history_b, config_b, target),
            }
            candidate = ConsolidationRecommendation(
                warehouses=(a, b),
                target_config=target,
                separate_credits=separate,
                merged_credits=merged_result.credits,
                latency_factors=factors,
            )
            if candidate.worst_latency_factor > self.max_latency_factor:
                continue
            if best is None or candidate.merged_credits < best.merged_credits:
                best = candidate
        return best

    @staticmethod
    def _fit_replay(records: list[QueryRecord], fit_config: WarehouseConfig) -> QueryReplay:
        latency = LatencyScalingModel().fit(records)
        gaps = GapModel().fit(records)
        clusters = ClusterCountPredictor().fit(records, fit_config)
        return QueryReplay(latency, gaps, clusters)

    @staticmethod
    def _candidate_targets(
        config_a: WarehouseConfig, config_b: WarehouseConfig
    ) -> list[WarehouseConfig]:
        """Plausible homes for the merged workload."""
        bigger = config_a if config_a.size >= config_b.size else config_b
        max_clusters = max(config_a.max_clusters, config_b.max_clusters)
        suspend = min(config_a.auto_suspend_seconds, config_b.auto_suspend_seconds)
        base = bigger.with_changes(
            max_clusters=max_clusters,
            min_clusters=min(bigger.min_clusters, max_clusters),
            auto_suspend_seconds=suspend,
        )
        return [base, base.with_changes(size=base.size.step(1))]

    @staticmethod
    def _latency_factor(
        history: ReplayHistory, own_config: WarehouseConfig, target: WarehouseConfig
    ) -> float:
        own: ReplayResult = history.cost(own_config)
        merged: ReplayResult = history.cost(target)
        if own.avg_latency <= 0:
            return 1.0
        return merged.avg_latency / own.avg_latency
