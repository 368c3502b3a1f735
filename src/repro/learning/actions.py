"""The discrete action space of the warehouse optimizer (§3's three levers).

This vocabulary is shared by the learning layer (env, baselines) and the
control loop above it (constraints, optimizer, smart model), so it lives
here at the learning layer — the lower of the two — and ``repro.core``
imports it downward.
Defining it any higher re-creates the learning -> core layering cycle the
linter rejects (R012, docs/INVARIANTS.md).

Each action jointly sets the three optimization surfaces the paper focuses
on — warehouse size (resize up/down/keep), the auto-suspend interval
(memory optimization), and the multi-cluster cap (parallelism).  The smart
model picks one action per decision interval; the actuator translates it to
ALTER WAREHOUSE calls.

The joint (rather than independent) action space matters: the paper notes
optimizations "interact and compete with one another in complex and
non-linear ways" (e.g. downsizing is only safe if the cluster cap is not
simultaneously slashed), so the learner must evaluate combinations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.common.errors import InvalidActionError
from repro.warehouse.config import MAX_CLUSTER_COUNT, WarehouseConfig
from repro.warehouse.types import WarehouseSize

#: Sentinel suspend value meaning "leave the current interval unchanged".
KEEP_SUSPEND = 0.0
#: Auto-suspend intervals (seconds) the optimizer may choose between; the
#: KEEP sentinel lets actions adjust size/clusters without touching the
#: customer's suspend setting (important early in onboarding, when the
#: confidence ramp has not yet unlocked aggressive suspension).
SUSPEND_CHOICES = (KEEP_SUSPEND, 60.0, 300.0, 600.0)
#: Relative size moves per decision: at most one T-shirt step per interval,
#: so a mistake is never more than one step from correction.
RESIZE_DELTAS = (-1, 0, 1)
#: Relative max-cluster moves per decision.
CLUSTER_DELTAS = (-1, 0, 1)


@dataclass(frozen=True)
class Action:
    """One joint optimization decision."""

    resize_delta: int
    suspend_seconds: float
    max_cluster_delta: int

    @property
    def keeps_suspend(self) -> bool:
        return self.suspend_seconds == KEEP_SUSPEND

    def describe(self) -> str:
        size = {-1: "downsize", 0: "keep size", 1: "upsize"}[self.resize_delta]
        cl = {-1: "clusters-1", 0: "clusters=", 1: "clusters+1"}[self.max_cluster_delta]
        suspend = "keep" if self.keeps_suspend else f"{self.suspend_seconds:.0f}s"
        return f"{size}, suspend={suspend}, {cl}"


class Transitions(NamedTuple):
    """Every action's resulting configuration from one starting config."""

    #: ``configs[i]`` is the config that action ``i`` leads to.
    configs: tuple[WarehouseConfig, ...]
    #: ``target_sizes[i] == configs[i].size`` as a read-only int array.
    target_sizes: np.ndarray
    #: Masks computed over this config's outcomes, kept by their caller
    #: (the smart model's admissible mask) under keys of its choosing.
    masks: dict


class ActionSpace:
    """The fixed enumeration of joint actions plus apply/mask helpers.

    The space is anchored to the warehouse's *original* configuration: the
    optimizer may downsize below the original size but never grows beyond
    ``max_size_headroom`` steps above it (provisioning far beyond what the
    customer ever asked for is a business decision, not an optimization),
    and the cluster cap stays within [1, original max].

    Transitions are tabulated: the first time a config is seen, all of its
    action outcomes are computed at once and kept, so ``apply`` and masks
    over the same config are lookups.  The table is derived state bounded
    by the configs a warehouse actually visits; it is never checkpointed.
    """

    def __init__(
        self,
        original: WarehouseConfig,
        max_size_headroom: int = 1,
        min_size: WarehouseSize = WarehouseSize.XS,
    ):
        self.original = original
        self.min_size = min_size
        self.max_size = original.size.step(max_size_headroom)
        self.actions: list[Action] = [
            Action(resize, suspend, clusters)
            for resize, suspend, clusters in itertools.product(
                RESIZE_DELTAS, SUSPEND_CHOICES, CLUSTER_DELTAS
            )
        ]
        self._index = {a: i for i, a in enumerate(self.actions)}
        #: Per-action columns for vectorized masks.
        self.keeps_suspend = np.array([a.keeps_suspend for a in self.actions])
        self.suspend_seconds = np.array([a.suspend_seconds for a in self.actions])
        self._cluster_cap = min(original.max_clusters, MAX_CLUSTER_COUNT)
        self._transitions: dict[tuple, Transitions] = {}

    def __len__(self) -> int:
        return len(self.actions)

    def index(self, action: Action) -> int:
        try:
            return self._index[action]
        except KeyError:
            raise InvalidActionError(f"action {action} is not in this space") from None

    @property
    def noop_index(self) -> int:
        """The fully conservative action: change nothing at all."""
        return self.index(Action(0, KEEP_SUSPEND, 0))

    def transitions(self, config: WarehouseConfig) -> Transitions:
        """The (cached) outcome of every action taken from ``config``."""
        # 600 and 600.0 compare equal but export differently, and KEEP
        # actions inherit the caller's value, so the value's type is keyed.
        key = (config, type(config.auto_suspend_seconds))
        table = self._transitions.get(key)
        if table is None:
            table = self._transitions[key] = self._tabulate(config)
        return table

    def _tabulate(self, config: WarehouseConfig) -> Transitions:
        # Actions often agree (clamped sizes and cluster caps, a KEEP that
        # matches a choice): each distinct outcome is built once and
        # shared.  600 and 600.0 export differently, so the type is keyed.
        built: dict[tuple, WarehouseConfig] = {}
        configs = []
        for action in self.actions:
            size = config.size.step(action.resize_delta).value
            size = min(max(size, self.min_size.value), self.max_size.value)
            new_max = int(config.max_clusters) + action.max_cluster_delta
            new_max = min(max(new_max, 1), self._cluster_cap)
            new_min = min(config.min_clusters, new_max)
            suspend = (
                config.auto_suspend_seconds
                if action.keeps_suspend
                else float(action.suspend_seconds)
            )
            key = (size, type(suspend), suspend, new_max, new_min)
            target = built.get(key)
            if target is None:
                target = built[key] = config.with_changes(
                    size=WarehouseSize(size),
                    auto_suspend_seconds=suspend,
                    max_clusters=new_max,
                    min_clusters=new_min,
                )
            configs.append(target)
        sizes = np.array([c.size.value for c in configs], dtype=np.int64)
        sizes.setflags(write=False)
        return Transitions(tuple(configs), sizes, {})

    def apply(self, config: WarehouseConfig, action: Action) -> WarehouseConfig:
        """The configuration that results from taking ``action`` now."""
        return self.transitions(config).configs[self.index(action)]

    def resulting_configs(self, config: WarehouseConfig) -> tuple[WarehouseConfig, ...]:
        return self.transitions(config).configs
