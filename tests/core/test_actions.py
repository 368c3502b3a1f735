"""Tests for the joint action space."""

import pytest

from repro.common.errors import InvalidActionError
from repro.learning.actions import KEEP_SUSPEND, SUSPEND_CHOICES, Action, ActionSpace
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.types import WarehouseSize


def original(**kw) -> WarehouseConfig:
    defaults = dict(size=WarehouseSize.L, auto_suspend_seconds=1800.0, max_clusters=4)
    defaults.update(kw)
    return WarehouseConfig(**defaults)


class TestActionSpace:
    def test_cardinality(self):
        space = ActionSpace(original())
        assert len(space) == 3 * len(SUSPEND_CHOICES) * 3

    def test_index_roundtrip(self):
        space = ActionSpace(original())
        for i, action in enumerate(space.actions):
            assert space.index(action) == i

    def test_unknown_action_rejected(self):
        space = ActionSpace(original())
        with pytest.raises(InvalidActionError):
            space.index(Action(5, 60.0, 0))

    def test_noop_changes_nothing(self):
        space = ActionSpace(original())
        config = original()
        noop = space.actions[space.noop_index]
        assert space.apply(config, noop) == config

    def test_apply_resize(self):
        space = ActionSpace(original())
        result = space.apply(original(), Action(-1, KEEP_SUSPEND, 0))
        assert result.size == WarehouseSize.M
        assert result.auto_suspend_seconds == 1800.0

    def test_apply_suspend(self):
        space = ActionSpace(original())
        result = space.apply(original(), Action(0, 60.0, 0))
        assert result.auto_suspend_seconds == 60.0
        assert result.size == WarehouseSize.L

    def test_apply_cluster_delta(self):
        space = ActionSpace(original())
        result = space.apply(original(), Action(0, KEEP_SUSPEND, -1))
        assert result.max_clusters == 3

    def test_size_floor_clamped(self):
        space = ActionSpace(original(size=WarehouseSize.XS))
        result = space.apply(original(size=WarehouseSize.XS), Action(-1, KEEP_SUSPEND, 0))
        assert result.size == WarehouseSize.XS

    def test_headroom_limits_upsize(self):
        space = ActionSpace(original(), max_size_headroom=1)
        at_ceiling = original().with_changes(size=WarehouseSize.XL)
        result = space.apply(at_ceiling, Action(1, KEEP_SUSPEND, 0))
        assert result.size == WarehouseSize.XL  # L + 1 headroom = XL max

    def test_zero_headroom_never_exceeds_original(self):
        space = ActionSpace(original(), max_size_headroom=0)
        result = space.apply(original(), Action(1, KEEP_SUSPEND, 0))
        assert result.size == WarehouseSize.L

    def test_clusters_never_exceed_original_max(self):
        space = ActionSpace(original(max_clusters=4))
        config = original(max_clusters=4)
        for _ in range(10):
            config = space.apply(config, Action(0, KEEP_SUSPEND, 1))
        assert config.max_clusters == 4

    def test_clusters_never_below_one(self):
        space = ActionSpace(original())
        config = original()
        for _ in range(10):
            config = space.apply(config, Action(0, KEEP_SUSPEND, -1))
        assert config.max_clusters == 1

    def test_min_clusters_shrink_with_max(self):
        space = ActionSpace(original(min_clusters=3, max_clusters=3))
        result = space.apply(
            original(min_clusters=3, max_clusters=3), Action(0, KEEP_SUSPEND, -1)
        )
        assert result.max_clusters == 2
        assert result.min_clusters == 2

    def test_resulting_configs_align_with_actions(self):
        space = ActionSpace(original())
        configs = space.resulting_configs(original())
        assert len(configs) == len(space)
        assert configs[space.noop_index] == original()

    def test_describe(self):
        text = Action(-1, 60.0, 1).describe()
        assert "downsize" in text and "60" in text and "clusters+1" in text
        assert "keep" in Action(0, KEEP_SUSPEND, 0).describe()


class TestTransitionTable:
    def test_resulting_configs_is_an_immutable_cached_tuple(self):
        space = ActionSpace(original())
        first = space.resulting_configs(original())
        assert isinstance(first, tuple)
        assert space.resulting_configs(original()) is first

    def test_target_sizes_are_read_only(self):
        space = ActionSpace(original())
        sizes = space.transitions(original()).target_sizes
        with pytest.raises(ValueError):
            sizes[0] = 0
        assert sizes.tolist() == [c.size.value for c in space.resulting_configs(original())]

    def test_equal_configs_keep_their_suspend_type(self):
        # 600 == 600.0, but KEEP actions must hand back the caller's value.
        space = ActionSpace(original(auto_suspend_seconds=600))
        space.resulting_configs(original(auto_suspend_seconds=600.0))
        keep = space.index(Action(-1, KEEP_SUSPEND, 0))
        as_int = space.resulting_configs(original(auto_suspend_seconds=600))[keep]
        assert type(as_int.auto_suspend_seconds) is int

    def test_per_action_columns(self):
        space = ActionSpace(original())
        assert space.keeps_suspend.tolist() == [a.keeps_suspend for a in space.actions]
        assert space.suspend_seconds.tolist() == [a.suspend_seconds for a in space.actions]
