"""Simulator-backed training environment built from telemetry (§6).

The paper's data learning trains smart models on historical telemetry; it
never replays customer SQL (C6).  We do the honest equivalent: the training
environment is reconstructed *only* from telemetry metadata — hashed
templates, arrival times, observed latencies, bytes scanned and cache-hit
ratios.  Ground-truth workload internals (the real
:class:`~repro.warehouse.queries.QueryTemplate` objects) are never touched:

* a template's XS-equivalent work is inferred from its *warm* observed
  latencies via the latency scaling model;
* its cache footprint is synthesized from bytes scanned (same template →
  same synthetic partitions, so warm/cold dynamics are preserved);
* its cold-read multiplier is estimated from the observed latency gap
  between cold and warm runs.

The agent then interacts with a fresh simulated warehouse replaying that
reconstructed workload: apply an action, advance one decision interval,
observe reward (credits + slider-weighted performance penalty).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.simtime import Window
from repro.common.stats import median
from repro.learning.actions import ActionSpace
from repro.learning.features import FeatureExtractor, WorkloadBaseline, interval_windows
from repro.learning.reward import RewardConfig, interval_reward
from repro.costmodel.latency import MIN_FIT_CACHE_HIT, LatencyScalingModel
from repro.warehouse.account import Account
from repro.warehouse.api import CloudWarehouseClient
from repro.warehouse.cache import PARTITION_BYTES
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.queries import QueryRecord, QueryRequest, QueryTemplate

#: Cap on synthetic partitions per template (keeps the LRU cheap).
MAX_SYNTHETIC_PARTITIONS = 64


def reconstruct_workload(
    records: list[QueryRecord],
    latency_model: LatencyScalingModel,
    window: Window,
) -> list[QueryRequest]:
    """Rebuild a replayable workload from telemetry metadata only.

    Each template is fit on every record of its template hash; requests
    (and the templates they use) are built only for the records arriving
    in ``window``, the episode a :class:`WarehouseEnv` replays.
    """
    by_template: dict[str, list[QueryRecord]] = defaultdict(list)
    for r in records:
        by_template[r.template_hash].append(r)
    records = [r for r in records if window.contains(r.arrival_time)]
    templates: dict[str, QueryTemplate] = {}
    for tpl_hash in dict.fromkeys(r.template_hash for r in records):
        rs = by_template[tpl_hash]
        gamma = latency_model.gamma(tpl_hash)
        warm = [r for r in rs if r.cache_hit_ratio >= MIN_FIT_CACHE_HIT]
        cold = [r for r in rs if r.cache_hit_ratio < MIN_FIT_CACHE_HIT]
        basis = warm or rs
        base_work = median(
            [r.execution_seconds * r.warehouse_size.speedup**gamma for r in basis]
        )
        if warm and cold:
            warm_eq = median(
                [r.execution_seconds * r.warehouse_size.speedup**gamma for r in warm]
            )
            cold_eq = median(
                [r.execution_seconds * r.warehouse_size.speedup**gamma for r in cold]
            )
            cold_multiplier = float(np.clip(cold_eq / max(warm_eq, 1e-9), 1.0, 5.0))
        else:
            cold_multiplier = 1.5
        bytes_scanned = median([r.bytes_scanned for r in rs])
        n_parts = int(np.clip(round(bytes_scanned / PARTITION_BYTES), 1, MAX_SYNTHETIC_PARTITIONS))
        templates[tpl_hash] = QueryTemplate(
            name=f"recon.{tpl_hash}",
            base_work_seconds=max(base_work, 1e-3),
            scale_exponent=float(np.clip(gamma, 0.0, 1.2)),
            bytes_scanned=bytes_scanned,
            partitions=tuple(f"recon.{tpl_hash}.p{i}" for i in range(n_parts)),
            cold_multiplier=cold_multiplier,
        )
    requests = [
        QueryRequest(
            template=templates[r.template_hash],
            arrival_time=r.arrival_time,
            instance_key=r.text_hash,
            chained=r.chained,
        )
        for r in records
    ]
    return sorted(requests, key=lambda q: q.arrival_time)


@dataclass
class EnvStep:
    """What the environment returns after one decision interval."""

    state: np.ndarray
    reward: float
    done: bool
    credits: float
    records: list[QueryRecord] = field(default_factory=list)


class WarehouseEnv:
    """RL environment over the reconstructed workload."""

    def __init__(
        self,
        requests: list[QueryRequest],
        original: WarehouseConfig,
        baseline: WorkloadBaseline,
        action_space: ActionSpace,
        reward_config: RewardConfig,
        window: Window,
        decision_interval: float = 600.0,
        mask_fn: Callable[[float, WarehouseConfig], np.ndarray] | None = None,
        seed: int = 0,
    ):
        if window.duration < decision_interval:
            raise ConfigurationError("episode window shorter than one decision interval")
        # The episode's requests, as ``reconstruct_workload(..., window)``
        # built them: every one arrives inside ``window``.
        self.requests = requests
        self.original = original
        self.baseline = baseline
        self.action_space = action_space
        self.reward_config = reward_config
        self.window = window
        self.decision_interval = decision_interval
        self.mask_fn = mask_fn
        self.seed = seed
        self._episode = 0
        self.account: Account | None = None
        self.client: CloudWarehouseClient | None = None
        self.features = FeatureExtractor(baseline, original)

    # ---------------------------------------------------------------- control
    def reset(self) -> np.ndarray:
        """Fresh simulated account replaying the reconstructed workload."""
        self._episode += 1
        self.account = Account(
            name="training",
            seed=self.seed * 1009 + self._episode,
            start_time=self.window.start,
        )
        self.account.create_warehouse("WH", self.original)
        self.account.schedule_workload("WH", self.requests)
        self.client = CloudWarehouseClient(self.account, actor="keebo")
        self.now = self.window.start
        return self._state()

    def current_mask(self) -> np.ndarray:
        config = self.client.current_config("WH")
        if self.mask_fn is None:
            # Every action is valid (clamped ones become no-ops); a fresh
            # array each call because callers AND into it.
            return np.ones(len(self.action_space), dtype=bool)
        return self.mask_fn(self.now, config)

    def step(self, action_index: int) -> EnvStep:
        if self.account is None:
            raise ConfigurationError("call reset() before step()")
        config = self.client.current_config("WH")
        target = self.action_space.resulting_configs(config)[action_index]
        if target != config:
            self.client.alter_warehouse(
                "WH",
                size=target.size,
                auto_suspend_seconds=target.auto_suspend_seconds,
                min_clusters=target.min_clusters,
                max_clusters=target.max_clusters,
            )
        interval = Window(self.now, min(self.now + self.decision_interval, self.window.end))
        self.account.run_until(interval.end)
        self.now = interval.end
        credits = self.client.credits_in_window("WH", interval)
        records = self.client.query_history("WH", interval)
        reward = interval_reward(
            credits,
            interval.duration,
            records,
            self.baseline,
            self.original,
            self.reward_config,
        )
        done = self.now >= self.window.end - 1e-9
        return EnvStep(self._state(interval, records), reward, done, credits, records)

    # ----------------------------------------------------------------- state
    def _state(
        self, fetched: Window | None = None, rows: list[QueryRecord] | None = None
    ) -> np.ndarray:
        """Features at ``now``; ``rows``, fetched for ``fetched`` at this
        instant, stand in for an equal recent window."""
        recent_w, previous_w = interval_windows(self.now, self.decision_interval)
        if recent_w == fetched:
            recent = rows
        else:
            recent = self.client.query_history("WH", recent_w)
        previous = self.client.query_history("WH", previous_w)
        info = self.client.describe_warehouse("WH")
        return self.features.extract(self.now, recent, previous, info)

    @property
    def steps_per_episode(self) -> int:
        return int(self.window.duration // self.decision_interval)
