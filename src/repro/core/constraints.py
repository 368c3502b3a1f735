"""Customer constraint rules (§4.1 "Constraints", §2 C2).

Constraints are hard business rules over time windows: "from 9:00 to 9:30
the BI warehouse must be at least X-Large with a minimum of 3 clusters", or
"on the last day of the month the ad-hoc warehouse cannot be downsized".
The smart model *never* takes an action that violates a rule in force
(§4.3): non-compliant candidate actions are masked out before selection.

A rule has an applicability predicate (weekdays × hour-of-day window ×
month-day window) and a set of requirements on the *resulting*
configuration (size floor/ceiling, cluster floor) plus per-optimization
permissions (may KWO downsize / upsize / touch parallelism at all).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.simtime import DAY, hour_of_day
from repro.learning.actions import ActionSpace
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.types import WarehouseSize

ALL_WEEKDAYS = (0, 1, 2, 3, 4, 5, 6)


@dataclass(frozen=True)
class ConstraintRule:
    """One customer rule; all requirement fields are optional."""

    name: str
    #: Weekdays the rule applies on (0=Mon..6=Sun).
    weekdays: tuple[int, ...] = ALL_WEEKDAYS
    #: Hour-of-day window [start, end); the rule is always-on if full-day.
    start_hour: float = 0.0
    end_hour: float = 24.0
    #: Day-of-(28-day-)month window, e.g. ``(27, 28)`` = last day. None = all.
    month_days: tuple[int, int] | None = None
    # ------------------------------------------------ requirements in force
    min_size: WarehouseSize | None = None
    max_size: WarehouseSize | None = None
    min_clusters: int | None = None
    allow_downsize: bool = True
    allow_upsize: bool = True
    allow_cluster_changes: bool = True
    #: Auto-suspend floor in seconds (e.g. "never suspend faster than 5 min").
    min_auto_suspend: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.start_hour <= 24.0 or not 0.0 <= self.end_hour <= 24.0:
            raise ConfigurationError("rule hours must be within [0, 24]")
        if not self.weekdays:
            raise ConfigurationError("rule must apply to at least one weekday")
        if any(d < 0 or d > 6 for d in self.weekdays):
            raise ConfigurationError("weekdays must be 0..6")
        if (
            self.min_size is not None
            and self.max_size is not None
            and self.min_size > self.max_size
        ):
            raise ConfigurationError("min_size exceeds max_size")

    # --------------------------------------------------------- applicability
    def applies_at(self, t: float) -> bool:
        weekday = int(t // DAY) % 7
        if weekday not in self.weekdays:
            return False
        h = hour_of_day(t)
        if self.start_hour <= self.end_hour:
            in_hours = self.start_hour <= h < self.end_hour
        else:  # wraps midnight
            in_hours = h >= self.start_hour or h < self.end_hour
        if not in_hours:
            return False
        if self.month_days is not None:
            day_in_month = int(t // DAY) % 28
            lo, hi = self.month_days
            if not lo <= day_in_month < hi:
                return False
        return True

    # ------------------------------------------------------------ compliance
    def permits(self, current: WarehouseConfig, proposed: WarehouseConfig) -> bool:
        """Is moving ``current -> proposed`` allowed while this rule is on?"""
        if not self.allow_downsize and proposed.size < current.size:
            return False
        if not self.allow_upsize and proposed.size > current.size:
            return False
        if not self.allow_cluster_changes and (
            proposed.max_clusters != current.max_clusters
            or proposed.min_clusters != current.min_clusters
            or proposed.scaling_policy != current.scaling_policy
        ):
            return False
        if self.min_size is not None and proposed.size < self.min_size:
            return False
        if self.max_size is not None and proposed.size > self.max_size:
            return False
        if self.min_clusters is not None and proposed.max_clusters < self.min_clusters:
            return False
        if (
            self.min_auto_suspend is not None
            and proposed.auto_suspend_seconds < self.min_auto_suspend
        ):
            return False
        return True

    def required_floor(self, config: WarehouseConfig) -> WarehouseConfig:
        """Lift ``config`` to satisfy this rule's resource floors.

        Used when a rule *starts* applying: the optimizer must immediately
        bring the warehouse into compliance (e.g. the Monday-9am "must be
        X-Large, 3 clusters" rule of §4.1's example).
        """
        changes = {}
        if self.min_size is not None and config.size < self.min_size:
            changes["size"] = self.min_size
        if self.max_size is not None and config.size > self.max_size:
            changes["size"] = self.max_size
        if self.min_clusters is not None and config.max_clusters < self.min_clusters:
            changes["max_clusters"] = self.min_clusters
            changes["min_clusters"] = max(config.min_clusters, self.min_clusters)
        if (
            self.min_auto_suspend is not None
            and config.auto_suspend_seconds < self.min_auto_suspend
        ):
            changes["auto_suspend_seconds"] = self.min_auto_suspend
        return config.with_changes(**changes) if changes else config


@dataclass
class ConstraintSet:
    """All rules attached to one warehouse."""

    rules: list[ConstraintRule] = field(default_factory=list)

    def add(self, rule: ConstraintRule) -> None:
        self.rules.append(rule)

    def active_rules(self, t: float) -> list[ConstraintRule]:
        return [r for r in self.rules if r.applies_at(t)]

    def permits(self, t: float, current: WarehouseConfig, proposed: WarehouseConfig) -> bool:
        return all(r.permits(current, proposed) for r in self.active_rules(t))

    def action_mask(
        self, t: float, current: WarehouseConfig, space: ActionSpace
    ) -> np.ndarray:
        """Boolean mask over ``space`` of rule-compliant actions."""
        active = self.active_rules(t)
        if not active:
            return np.ones(len(space), dtype=bool)
        mask = np.zeros(len(space), dtype=bool)
        for i, proposed in enumerate(space.resulting_configs(current)):
            mask[i] = all(r.permits(current, proposed) for r in active)
        return mask

    def enforce_floor(self, t: float, config: WarehouseConfig) -> WarehouseConfig:
        """Apply every active rule's resource floor to ``config``."""
        for rule in self.active_rules(t):
            config = rule.required_floor(config)
        return config
