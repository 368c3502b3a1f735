"""Property-based tests for the event engine and the constraint engine."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.simtime import DAY, HOUR
from repro.learning.actions import ActionSpace
from repro.core.constraints import ConstraintRule, ConstraintSet
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.engine import Simulation
from repro.warehouse.types import WarehouseSize


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_events_always_fire_in_order(self, times):
        sim = Simulation()
        fired = []
        for t in times:
            sim.schedule(t, lambda t=t: fired.append(t))
        sim.run_until(1e6 + 1)
        assert fired == sorted(fired)
        assert len(fired) == len(times)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=50),
        st.sets(st.integers(min_value=0, max_value=49)),
    )
    @settings(max_examples=100, deadline=None)
    def test_cancelled_events_never_fire(self, times, cancel_idx):
        sim = Simulation()
        fired = []
        handles = [sim.schedule(t, lambda i=i: fired.append(i)) for i, t in enumerate(times)]
        for i in cancel_idx:
            if i < len(handles):
                handles[i].cancel()
        sim.run_until(1e5 + 1)
        cancelled = {i for i in cancel_idx if i < len(times)}
        assert set(fired) == set(range(len(times))) - cancelled


rule_strategy = st.builds(
    ConstraintRule,
    name=st.just("r"),
    weekdays=st.sets(st.integers(0, 6), min_size=1, max_size=7).map(tuple),
    start_hour=st.floats(min_value=0.0, max_value=24.0),
    end_hour=st.floats(min_value=0.0, max_value=24.0),
    min_size=st.one_of(st.none(), st.sampled_from(list(WarehouseSize))),
    min_clusters=st.one_of(st.none(), st.integers(1, 6)),
    allow_downsize=st.booleans(),
    allow_upsize=st.booleans(),
    allow_cluster_changes=st.booleans(),
    min_auto_suspend=st.one_of(st.none(), st.floats(min_value=0.0, max_value=900.0)),
)


class TestConstraintProperties:
    @given(st.lists(rule_strategy, max_size=4), st.floats(min_value=0.0, max_value=56 * DAY))
    @settings(max_examples=150, deadline=None)
    def test_masked_actions_are_exactly_the_permitted_ones(self, rules, t):
        """The action mask and permits() must agree on every action."""
        constraints = ConstraintSet(rules)
        original = WarehouseConfig(size=WarehouseSize.M, max_clusters=4)
        space = ActionSpace(original)
        mask = constraints.action_mask(t, original, space)
        for i, target in enumerate(space.resulting_configs(original)):
            assert mask[i] == constraints.permits(t, original, target)

    @given(st.lists(rule_strategy, max_size=4), st.floats(min_value=0.0, max_value=56 * DAY))
    @settings(max_examples=150, deadline=None)
    def test_staying_put_is_always_compliant(self, rules, t):
        """No rule can make the current configuration illegal to keep —
        permits() only restricts *transitions* and resource floors are the
        separate enforce_floor path."""
        constraints = ConstraintSet(rules)
        config = WarehouseConfig(size=WarehouseSize.M, max_clusters=4)
        floored = constraints.enforce_floor(t, config)
        assert constraints.permits(t, floored, floored)

    @given(st.lists(rule_strategy, max_size=4), st.floats(min_value=0.0, max_value=56 * DAY))
    @settings(max_examples=150, deadline=None)
    def test_enforce_floor_idempotent(self, rules, t):
        constraints = ConstraintSet(rules)
        config = WarehouseConfig(size=WarehouseSize.M, max_clusters=4)
        once = constraints.enforce_floor(t, config)
        twice = constraints.enforce_floor(t, once)
        assert once == twice


class TestActionSpaceProperties:
    @given(
        st.sampled_from(list(WarehouseSize)),
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=0, max_value=2),
        st.lists(st.integers(min_value=0, max_value=35), min_size=1, max_size=30),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_action_sequence_stays_in_bounds(self, size, max_clusters, headroom, seq):
        original = WarehouseConfig(size=size, max_clusters=max_clusters)
        space = ActionSpace(original, max_size_headroom=headroom)
        config = original
        for idx in seq:
            config = space.apply(config, space.actions[idx % len(space)])
            assert WarehouseSize.XS <= config.size <= original.size.step(headroom)
            assert 1 <= config.max_clusters <= max_clusters
            assert config.min_clusters <= config.max_clusters
