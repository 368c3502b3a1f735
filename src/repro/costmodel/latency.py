"""Latency scaling across warehouse sizes (§5.2 "Impact on query latencies").

The replay must answer: *how long would this query have run on the
customer's original size?*  Because KWO changes sizes dynamically, telemetry
contains the same template executed on several sizes; we fit, per template,

``log2(latency) = intercept - gamma * size_index``

so ``gamma`` is the template's scaling elasticity (1.0 = doubling the
warehouse halves latency).  Templates observed on a single size fall back to
the warehouse-average gamma — the paper's "average impact on query latencies
observed on that warehouse as a first-order approximation".  Identical
queries are matched by text hash, similar queries by template hash
(footnote 4).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.durability.codec import require_keys
from repro.warehouse.queries import QueryRecord
from repro.warehouse.types import WarehouseSize

#: Prior elasticity used before any cross-size evidence exists.
DEFAULT_GAMMA = 0.7
#: Elasticities outside this band are treated as fitting noise and clipped.
GAMMA_BOUNDS = (0.0, 1.2)
#: Cold-cache executions pollute the scaling fit; exclude mostly-cold runs.
MIN_FIT_CACHE_HIT = 0.5


@dataclass
class TemplateScaling:
    """Fitted per-template scaling parameters."""

    gamma: float
    log2_latency_at_xs: float
    n_observations: int
    n_sizes: int

    def latency_at(self, size: WarehouseSize) -> float:
        return 2.0 ** (self.log2_latency_at_xs - self.gamma * size.value)


@dataclass
class LatencyScalingModel:
    """Regression model rescaling observed latencies across sizes."""

    default_gamma: float = DEFAULT_GAMMA
    _templates: dict[str, TemplateScaling] = field(default_factory=dict)
    _warehouse_gamma: float = DEFAULT_GAMMA
    fitted: bool = False
    #: Bumped by every :meth:`fit`; part of the optimizer's
    #: ``model_version``, so a refit forces a checkpoint compaction.
    fit_generation: int = 0

    def fit(self, records: list[QueryRecord]) -> "LatencyScalingModel":
        """Fit from completed query history of one warehouse."""
        by_template: dict[str, list[tuple[int, float]]] = defaultdict(list)
        for r in records:
            if r.execution_seconds <= 0:
                continue
            if r.cache_hit_ratio < MIN_FIT_CACHE_HIT:
                continue
            by_template[r.template_hash].append(
                (r.warehouse_size.value, math.log2(r.execution_seconds))
            )
        slopes: list[tuple[float, int]] = []  # (gamma, weight) for pooling
        self._templates.clear()
        for tpl, obs in by_template.items():
            xs = np.array([o[0] for o in obs], dtype=float)
            ys = np.array([o[1] for o in obs], dtype=float)
            n_sizes = len(set(xs))
            if n_sizes >= 2:
                # least squares: y = b - gamma * x
                slope, intercept = np.polyfit(xs, ys, 1)
                gamma = float(np.clip(-slope, *GAMMA_BOUNDS))
                log2_at_xs = float(intercept)
                slopes.append((gamma, len(obs)))
            else:
                gamma = math.nan  # resolved after the pooled gamma is known
                log2_at_xs = float(ys.mean() + self.default_gamma * xs.mean())
            self._templates[tpl] = TemplateScaling(gamma, log2_at_xs, len(obs), n_sizes)
        if slopes:
            weights = np.array([w for _, w in slopes], dtype=float)
            gammas = np.array([g for g, _ in slopes], dtype=float)
            self._warehouse_gamma = float(np.average(gammas, weights=weights))
        else:
            self._warehouse_gamma = self.default_gamma
        # Resolve single-size templates with the pooled warehouse gamma.
        for tpl, scaling in self._templates.items():
            if math.isnan(scaling.gamma):
                obs = by_template[tpl]
                xs = np.array([o[0] for o in obs], dtype=float)
                ys = np.array([o[1] for o in obs], dtype=float)
                scaling.gamma = self._warehouse_gamma
                scaling.log2_latency_at_xs = float(ys.mean() + scaling.gamma * xs.mean())
        self.fitted = True
        self.fit_generation += 1
        return self

    @property
    def warehouse_gamma(self) -> float:
        """Pooled scaling elasticity of this warehouse's workload."""
        return self._warehouse_gamma

    def gamma(self, template_hash: str) -> float:
        scaling = self._templates.get(template_hash)
        if scaling is None:
            return self._warehouse_gamma if self.fitted else self.default_gamma
        return scaling.gamma

    def rescale(
        self,
        record: QueryRecord,
        to_size: WarehouseSize,
    ) -> float:
        """Counterfactual execution seconds of ``record`` on ``to_size``.

        The observed latency (which embeds that run's cache/contention/noise
        conditions) is scaled by ``2**(gamma * (from - to))``; only the
        compute-elastic part of latency should scale, so fully-cold runs are
        scaled conservatively (cold read time is dominated by remote I/O).
        """
        gamma = self.gamma(record.template_hash)
        from_idx = record.warehouse_size.value
        factor = 2.0 ** (gamma * (from_idx - to_size.value))
        if record.cache_hit_ratio < MIN_FIT_CACHE_HIT:
            # Cold portion does not speed up with compute; damp the scaling.
            factor = 1.0 + (factor - 1.0) * max(record.cache_hit_ratio, 0.3)
        return record.execution_seconds * factor

    def gamma_array(self, template_hashes: list[str]) -> np.ndarray:
        """Per-record gammas via one :meth:`gamma` lookup per distinct
        template — the config-independent half of :meth:`rescale_batch`,
        exposed so replay can compute it once per telemetry snapshot."""
        gamma_of = {tpl: self.gamma(tpl) for tpl in sorted(set(template_hashes))}
        return np.fromiter(
            map(gamma_of.__getitem__, template_hashes),
            dtype=np.float64,
            count=len(template_hashes),
        )

    def rescale_batch(
        self,
        template_hashes: list[str],
        size_values: np.ndarray,
        cache_hit_ratios: np.ndarray,
        execution_seconds: np.ndarray,
        to_size: WarehouseSize,
        gammas: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized :meth:`rescale` over parallel record columns.

        Bit-identical to calling :meth:`rescale` per record: per-record
        gammas come from the same :meth:`gamma` lookups (resolved once per
        distinct template), the exponent ``gamma * (from - to)`` is the same
        elementwise multiply, ``2.0 ** x`` runs as the same Python pow per
        *unique* exponent (a replay window has few distinct
        template × size combinations), and the cold-cache damping is the
        same elementwise expression.
        """
        to_value = to_size.value
        if gammas is None:
            gammas = self.gamma_array(template_hashes)
        exponents = gammas * (size_values - to_value)
        unique_exponents, inverse = np.unique(exponents, return_inverse=True)
        unique_factors = np.fromiter(
            (2.0 ** x for x in unique_exponents.tolist()),
            dtype=np.float64,
            count=unique_exponents.size,
        )
        factors = unique_factors[inverse]
        cold = cache_hit_ratios < MIN_FIT_CACHE_HIT
        if cold.any():
            damped = 1.0 + (factors - 1.0) * np.maximum(cache_hit_ratios, 0.3)
            factors = np.where(cold, damped, factors)
        return execution_seconds * factors

    def predict_absolute(self, template_hash: str, size: WarehouseSize) -> float | None:
        """Expected warm latency of a known template at ``size``."""
        scaling = self._templates.get(template_hash)
        if scaling is None:
            return None
        return scaling.latency_at(size)

    def size_speed_factor(self, from_size: WarehouseSize, to_size: WarehouseSize) -> float:
        """Warehouse-average latency multiplier when moving between sizes."""
        return 2.0 ** (self._warehouse_gamma * (from_size.value - to_size.value))

    @property
    def n_templates(self) -> int:
        return len(self._templates)

    # ----------------------------------------------------------- durability
    def state_dict(self) -> dict:
        return {
            "default_gamma": self.default_gamma,
            "warehouse_gamma": self._warehouse_gamma,
            "fitted": self.fitted,
            "fit_generation": self.fit_generation,
            "templates": {
                tpl: {
                    "gamma": s.gamma,
                    "log2_latency_at_xs": s.log2_latency_at_xs,
                    "n_observations": s.n_observations,
                    "n_sizes": s.n_sizes,
                }
                for tpl, s in sorted(self._templates.items())
            },
        }

    def load_state_dict(self, state: dict) -> None:
        require_keys(
            state,
            ("default_gamma", "warehouse_gamma", "fitted", "fit_generation", "templates"),
            "LatencyScalingModel",
        )
        self.default_gamma = float(state["default_gamma"])
        self._warehouse_gamma = float(state["warehouse_gamma"])
        self.fitted = bool(state["fitted"])
        self.fit_generation = int(state["fit_generation"])
        self._templates = {
            tpl: TemplateScaling(
                gamma=float(s["gamma"]),
                log2_latency_at_xs=float(s["log2_latency_at_xs"]),
                n_observations=int(s["n_observations"]),
                n_sizes=int(s["n_sizes"]),
            )
            for tpl, s in state["templates"].items()
        }
