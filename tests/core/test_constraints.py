"""Tests for the customer constraint rule engine."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.simtime import DAY, HOUR
from repro.learning.actions import ActionSpace
from repro.core.constraints import ConstraintRule, ConstraintSet
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.types import WarehouseSize


def at(day: int, hour: float) -> float:
    return day * DAY + hour * HOUR


class TestRuleApplicability:
    def test_hour_window(self):
        rule = ConstraintRule("morning", start_hour=9.0, end_hour=9.5)
        assert rule.applies_at(at(0, 9.25))
        assert not rule.applies_at(at(0, 9.75))
        assert not rule.applies_at(at(0, 8.99))

    def test_weekday_filter(self):
        rule = ConstraintRule("weekdays", weekdays=(0, 1, 2, 3, 4))
        assert rule.applies_at(at(0, 12))  # Monday
        assert not rule.applies_at(at(5, 12))  # Saturday

    def test_midnight_wrap(self):
        rule = ConstraintRule("night", start_hour=22.0, end_hour=6.0)
        assert rule.applies_at(at(0, 23))
        assert rule.applies_at(at(0, 3))
        assert not rule.applies_at(at(0, 12))

    def test_month_day_window(self):
        rule = ConstraintRule("month-end", month_days=(27, 28))
        assert rule.applies_at(at(27, 12))  # last day of 28-day month
        assert not rule.applies_at(at(10, 12))
        assert rule.applies_at(at(28 + 27, 12))  # next month's last day

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ConstraintRule("bad", start_hour=25)
        with pytest.raises(ConfigurationError):
            ConstraintRule("bad", weekdays=())
        with pytest.raises(ConfigurationError):
            ConstraintRule("bad", weekdays=(9,))
        with pytest.raises(ConfigurationError):
            ConstraintRule("bad", min_size=WarehouseSize.L, max_size=WarehouseSize.S)


class TestRulePermits:
    def config(self, **kw):
        defaults = dict(size=WarehouseSize.M, max_clusters=3)
        defaults.update(kw)
        return WarehouseConfig(**defaults)

    def test_no_downsize(self):
        rule = ConstraintRule("lock", allow_downsize=False)
        assert not rule.permits(self.config(), self.config(size=WarehouseSize.S))
        assert rule.permits(self.config(), self.config(size=WarehouseSize.L))

    def test_no_upsize(self):
        rule = ConstraintRule("cap", allow_upsize=False)
        assert not rule.permits(self.config(), self.config(size=WarehouseSize.L))

    def test_cluster_freeze(self):
        rule = ConstraintRule("freeze", allow_cluster_changes=False)
        assert not rule.permits(self.config(), self.config(max_clusters=2))
        assert rule.permits(self.config(), self.config(size=WarehouseSize.S))

    def test_size_floor_and_ceiling(self):
        rule = ConstraintRule("band", min_size=WarehouseSize.S, max_size=WarehouseSize.L)
        assert not rule.permits(self.config(), self.config(size=WarehouseSize.XS))
        assert not rule.permits(self.config(), self.config(size=WarehouseSize.XL))
        assert rule.permits(self.config(), self.config(size=WarehouseSize.L))

    def test_min_clusters(self):
        rule = ConstraintRule("par", min_clusters=3)
        assert not rule.permits(self.config(), self.config(max_clusters=2))
        assert rule.permits(self.config(), self.config(max_clusters=3))

    def test_suspend_floor(self):
        rule = ConstraintRule("warm", min_auto_suspend=300.0)
        assert not rule.permits(self.config(), self.config(auto_suspend_seconds=60))
        assert rule.permits(self.config(), self.config(auto_suspend_seconds=600))


class TestRequiredFloor:
    def test_lifts_size_and_clusters(self):
        # §4.1's example: 9-9:30 the BI warehouse must be XL with >= 3 clusters.
        rule = ConstraintRule(
            "bi-peak", start_hour=9.0, end_hour=9.5, min_size=WarehouseSize.XL, min_clusters=3
        )
        config = WarehouseConfig(size=WarehouseSize.L, max_clusters=2)
        lifted = rule.required_floor(config)
        assert lifted.size == WarehouseSize.XL
        assert lifted.max_clusters == 3

    def test_noop_when_compliant(self):
        rule = ConstraintRule("floor", min_size=WarehouseSize.S)
        config = WarehouseConfig(size=WarehouseSize.M)
        assert rule.required_floor(config) == config

    def test_ceiling_lowers_size(self):
        rule = ConstraintRule("cap", max_size=WarehouseSize.S)
        lifted = rule.required_floor(WarehouseConfig(size=WarehouseSize.L))
        assert lifted.size == WarehouseSize.S


class TestConstraintSet:
    def test_empty_set_permits_everything(self):
        cs = ConstraintSet()
        assert cs.permits(0.0, WarehouseConfig(), WarehouseConfig(size=WarehouseSize.XS))

    def test_inactive_rules_ignored(self):
        cs = ConstraintSet([ConstraintRule("m", start_hour=9, end_hour=10, allow_downsize=False)])
        downsized = WarehouseConfig(size=WarehouseSize.S)
        assert cs.permits(at(0, 12), WarehouseConfig(), downsized)
        assert not cs.permits(at(0, 9.5), WarehouseConfig(), downsized)

    def test_all_active_rules_must_permit(self):
        cs = ConstraintSet(
            [
                ConstraintRule("a", min_size=WarehouseSize.S),
                ConstraintRule("b", min_clusters=2),
            ]
        )
        ok = WarehouseConfig(size=WarehouseSize.M, max_clusters=2)
        assert cs.permits(0.0, WarehouseConfig(), ok)
        assert not cs.permits(0.0, WarehouseConfig(), ok.with_changes(max_clusters=1, min_clusters=1))

    def test_action_mask_blocks_noncompliant(self):
        original = WarehouseConfig(size=WarehouseSize.M, max_clusters=3)
        space = ActionSpace(original)
        cs = ConstraintSet([ConstraintRule("nodown", allow_downsize=False)])
        mask = cs.action_mask(0.0, original, space)
        for i, action in enumerate(space.actions):
            target = space.apply(original, action)
            if target.size < original.size:
                assert not mask[i]
        assert mask.any()

    def test_action_mask_without_rules_all_true(self):
        original = WarehouseConfig()
        space = ActionSpace(original)
        assert ConstraintSet().action_mask(0.0, original, space).all()

    def test_enforce_floor_applies_active_rules_only(self):
        cs = ConstraintSet(
            [ConstraintRule("peak", start_hour=9, end_hour=10, min_size=WarehouseSize.XL)]
        )
        config = WarehouseConfig(size=WarehouseSize.M)
        assert cs.enforce_floor(at(0, 9.5), config).size == WarehouseSize.XL
        assert cs.enforce_floor(at(0, 11.0), config).size == WarehouseSize.M
