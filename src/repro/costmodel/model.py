"""The warehouse cost model facade (§5).

Combines the analytical query replay with the three learned parameter
estimators (latency scaling, gaps, cluster counts) to:

* estimate the **without-Keebo** cost of any telemetry window — the what-if
  baseline behind savings reporting and value-based pricing (§4.6, §4.7);
* evaluate arbitrary **what-if configurations** so the smart model can ask
  "what would this action do to cost and latency before I take it" (§4.3);
* quantify **savings** = estimated without-Keebo credits − actual billed
  credits (the with-Keebo cost is read directly from metering, as §5.1
  notes it need not be estimated).

Unlike a traditional query-optimizer cost model, every number here is in
billable credits, directly convertible to dollars.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import TelemetryError
from repro.common.simtime import Window
from repro.costmodel.clusters import ClusterCountPredictor
from repro.costmodel.gaps import GapModel
from repro.costmodel.latency import LatencyScalingModel
from repro.costmodel.replay import QueryReplay, ReplayHistory, ReplayResult
from repro.durability.codec import decode_window, encode_window, require_keys
from repro.warehouse.api import CloudWarehouseClient
from repro.warehouse.config import WarehouseConfig


@dataclass(frozen=True)
class SavingsEstimate:
    """Savings attributed to the optimizer over one window."""

    window: Window
    without_keebo_credits: float
    with_keebo_credits: float

    @property
    def savings_credits(self) -> float:
        return self.without_keebo_credits - self.with_keebo_credits

    @property
    def savings_fraction(self) -> float:
        if self.without_keebo_credits <= 0:
            return 0.0
        return self.savings_credits / self.without_keebo_credits


class WarehouseCostModel:
    """Per-warehouse cost model: fit on telemetry, then ask what-ifs."""

    def __init__(
        self,
        client: CloudWarehouseClient,
        warehouse: str,
        calibrate: bool = True,
        use_chain_flags: bool = True,
    ):
        self.client = client
        self.warehouse = warehouse
        self.latency_model = LatencyScalingModel()
        self.gap_model = GapModel(use_flags=use_chain_flags)
        self.cluster_predictor = ClusterCountPredictor(calibrate=calibrate)
        self.replay = QueryReplay(self.latency_model, self.gap_model, self.cluster_predictor)
        self.fitted = False
        self.training_window: Window | None = None

    # -------------------------------------------------------------- training
    def fit(self, window: Window) -> "WarehouseCostModel":
        """Fit all parameter estimators on the telemetry inside ``window``."""
        records = self.client.query_history(self.warehouse, window)
        self.latency_model.fit(records)
        self.gap_model.fit(records)
        fit_config = self.client.current_config(self.warehouse)
        self.cluster_predictor.fit(records, fit_config)
        self.replay.fit_generation += 1
        self.training_window = window
        self.fitted = True
        return self

    # ----------------------------------------------------------- durability
    def state_dict(self) -> dict:
        """Fitted estimator state (StateCodec)."""
        return {
            "latency_model": self.latency_model.state_dict(),
            "gap_model": self.gap_model.state_dict(),
            "cluster_predictor": self.cluster_predictor.state_dict(),
            "fitted": self.fitted,
            "training_window": (
                None if self.training_window is None else encode_window(self.training_window)
            ),
        }

    def load_state_dict(self, state: dict) -> None:
        require_keys(
            state,
            ("latency_model", "gap_model", "cluster_predictor", "fitted", "training_window"),
            "WarehouseCostModel",
        )
        self.latency_model.load_state_dict(state["latency_model"])
        self.gap_model.load_state_dict(state["gap_model"])
        self.cluster_predictor.load_state_dict(state["cluster_predictor"])
        self.replay.fit_generation += 1
        self.fitted = bool(state["fitted"])
        window = state["training_window"]
        self.training_window = None if window is None else decode_window(window)

    def _require_fit(self) -> None:
        if not self.fitted:
            raise TelemetryError(
                f"cost model for {self.warehouse!r} used before fit(); call fit(window) first"
            )

    # ------------------------------------------------------------- estimates
    def snapshot(self, window: Window) -> ReplayHistory:
        """Fetch ``window``'s QUERY_HISTORY once, for what-ifs under many
        configs: ``snapshot(window).cost(config)``.

        The snapshot computes the config-independent replay prep once and
        each size's stages once, so asking it about ``n`` configs costs one
        fetch plus the per-config tails.  Take a new snapshot for a new
        window, a later instant or after :meth:`fit`.
        """
        self._require_fit()
        return self.replay.history(self.client.query_history(self.warehouse, window), window)

    def estimate_cost(self, window: Window, config: WarehouseConfig) -> ReplayResult:
        """What-if: billed credits for ``window`` under ``config``."""
        return self.snapshot(window).cost(config)

    def estimate_without_keebo(self, window: Window) -> ReplayResult:
        """The §5.1 baseline: replay under the customer's *original* settings
        (the most recent configuration not initiated by Keebo)."""
        self._require_fit()
        original = self.client.account.telemetry.original_config(
            self.warehouse, before=window.end
        )
        return self.estimate_cost(window, original)

    def actual_credits(self, window: Window) -> float:
        """With-Keebo cost straight from metering (no estimation needed)."""
        return self.client.credits_in_window(self.warehouse, window)

    def estimate_savings(self, window: Window) -> SavingsEstimate:
        self._require_fit()
        without = self.estimate_without_keebo(window)
        actual = self.actual_credits(window)
        return SavingsEstimate(window, without.credits, actual)
