"""Property tests: the tabulated action space against the scalar oracles.

``ActionSpace`` computes each config's 36 outcomes once and keeps them, and
``SmartModel._admissible_mask`` filters them with array operations.  The
oracles below are the scalar forms those replaced — ``np.clip`` per action
and a Python loop over the action set — kept here so the table path must
agree with them element for element, on every config a random walk of
actions reaches.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.simtime import DAY
from repro.core.constraints import ConstraintRule, ConstraintSet
from repro.core.sliders import SliderPosition, slider_params
from repro.core.smart_model import SmartModel
from repro.learning.actions import ActionSpace
from repro.warehouse.config import MAX_CLUSTER_COUNT, WarehouseConfig
from repro.warehouse.types import WarehouseSize


def oracle_apply(space: ActionSpace, config: WarehouseConfig, action) -> WarehouseConfig:
    new_size = config.size.step(action.resize_delta)
    new_size = WarehouseSize(
        int(np.clip(new_size.value, space.min_size.value, space.max_size.value))
    )
    new_max = int(
        np.clip(
            config.max_clusters + action.max_cluster_delta,
            1,
            min(space.original.max_clusters, MAX_CLUSTER_COUNT),
        )
    )
    suspend = (
        config.auto_suspend_seconds if action.keeps_suspend else float(action.suspend_seconds)
    )
    return config.with_changes(
        size=new_size,
        auto_suspend_seconds=suspend,
        max_clusters=new_max,
        min_clusters=min(config.min_clusters, new_max),
    )


def oracle_mask(model: SmartModel, now: float, current: WarehouseConfig, c: float):
    space = model.action_space
    active = model.constraints.active_rules(now)
    mask = np.array(
        [
            all(r.permits(current, oracle_apply(space, current, a)) for r in active)
            for a in space.actions
        ]
    )
    max_suspend = max(a.suspend_seconds for a in space.actions)
    anchor = max(model.original.auto_suspend_seconds, max_suspend)
    if model.original.auto_suspend_seconds <= 0:
        anchor = 4 * max_suspend
    floor = max(model.params.min_auto_suspend, 1.0)
    suspend_floor = floor * (anchor / floor) ** (1.0 - c)
    downsize_depth = int(c * model.params.max_downsize_steps)
    size_floor = model.original.size.step(-downsize_depth)
    size_ceiling = model.original.size.step(model.params.max_upsize_steps)
    for i, action in enumerate(space.actions):
        if not mask[i]:
            continue
        if not action.keeps_suspend and action.suspend_seconds < suspend_floor - 1e-9:
            mask[i] = False
            continue
        target = oracle_apply(space, current, action)
        if not size_floor <= target.size <= size_ceiling:
            mask[i] = False
    if not mask.any():
        mask[space.noop_index] = True
    return mask


@st.composite
def originals(draw):
    max_clusters = draw(st.integers(1, MAX_CLUSTER_COUNT))
    return WarehouseConfig(
        size=draw(st.sampled_from(list(WarehouseSize))),
        # 0 is "never suspend"; ints and floats both occur in scenarios.
        auto_suspend_seconds=draw(st.sampled_from([0.0, 60.0, 120, 300.0, 600, 1800.0, 3600.0])),
        min_clusters=draw(st.integers(1, max_clusters)),
        max_clusters=max_clusters,
    )


windowed_rule = st.builds(
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
always_on_rule = st.builds(
    ConstraintRule,
    name=st.just("always"),
    allow_downsize=st.booleans(),
    allow_upsize=st.booleans(),
    min_auto_suspend=st.one_of(st.none(), st.sampled_from([60.0, 300.0])),
)
constraint_sets = st.one_of(
    st.just([]),
    st.lists(windowed_rule, min_size=1, max_size=3),
    st.lists(always_on_rule, min_size=1, max_size=2),
)


def model_for(space: ActionSpace, rules, position) -> SmartModel:
    """A smart model wired only as far as ``_admissible_mask`` reads."""
    return SmartModel(
        None, "WH", None, space, None, None, ConstraintSet(list(rules)),
        slider_params(position),
    )


class TestTransitionTableProperties:
    @given(
        originals(),
        st.integers(0, 2),
        st.sampled_from([WarehouseSize.XS, WarehouseSize.S, WarehouseSize.M]),
        st.lists(st.integers(0, 35), max_size=25),
    )
    @settings(max_examples=150, deadline=None)
    def test_targets_match_clip_oracle_along_walks(self, original, headroom, min_size, walk):
        space = ActionSpace(original, max_size_headroom=headroom, min_size=min_size)
        config = original
        for idx in [space.noop_index, *walk]:
            expected = [oracle_apply(space, config, a) for a in space.actions]
            table = space.transitions(config)
            assert list(table.configs) == expected
            assert [type(c.auto_suspend_seconds) for c in table.configs] == [
                type(c.auto_suspend_seconds) for c in expected
            ]
            assert [repr(c) for c in table.configs] == [repr(c) for c in expected]
            # Each distinct outcome is built once and shared by its actions.
            assert len({id(c) for c in table.configs}) == len({repr(c) for c in expected})
            assert table.target_sizes.tolist() == [c.size.value for c in expected]
            for action, target in zip(space.actions, expected):
                assert space.apply(config, action) == target
            config = expected[idx]

    @given(
        originals(),
        st.integers(0, 2),
        constraint_sets,
        st.floats(min_value=0.0, max_value=28 * DAY),
        st.floats(min_value=0.0, max_value=1.0),
        st.lists(st.integers(0, 35), max_size=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_mask_matches_loop_oracle(self, original, headroom, rules, now, confidence, walk):
        space = ActionSpace(original, max_size_headroom=headroom)
        model = model_for(space, rules, SliderPosition.BALANCED)
        config = original
        for idx in [space.noop_index, *walk]:
            for position in SliderPosition:
                # set_slider swaps params at run time; the mask must follow.
                model.set_slider(slider_params(position))
                got = model._admissible_mask(now, config, confidence=confidence)
                want = oracle_mask(model, now, config, confidence)
                assert got.dtype == bool
                assert got.tolist() == want.tolist()
            config = oracle_apply(space, config, space.actions[idx])

    @given(
        originals(),
        constraint_sets,
        st.floats(min_value=0.0, max_value=28 * DAY),
    )
    @settings(max_examples=100, deadline=None)
    def test_constraint_mask_matches_permits_oracle(self, original, rules, now):
        space = ActionSpace(original)
        constraints = ConstraintSet(list(rules))
        got = constraints.action_mask(now, original, space)
        want = [
            constraints.permits(now, original, oracle_apply(space, original, a))
            for a in space.actions
        ]
        assert got.tolist() == want


#: One mask query: time, confidence override (``None`` reads the ramp),
#: slider position, and the action that leads from the original config to
#: the config asked about.
mask_queries = st.tuples(
    st.floats(min_value=0.0, max_value=28 * DAY),
    st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
    st.sampled_from(list(SliderPosition)),
    st.integers(0, 35),
)


class TestMaskMemoProperties:
    @given(
        originals(),
        constraint_sets,
        st.floats(min_value=0.0, max_value=2 * DAY),
        st.floats(min_value=0.0, max_value=DAY),
        # Queries drawn from a small pool, so the memo is hit as well as filled.
        st.lists(mask_queries, min_size=1, max_size=5).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=30)
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_memoized_mask_matches_fresh_computation(
        self, original, rules, anchor, tau, queries
    ):
        space = ActionSpace(original)
        model = model_for(space, rules, SliderPosition.BALANCED)
        model.set_confidence_ramp(anchor, tau)
        for now, confidence, position, hop in queries:
            model.set_slider(slider_params(position))
            config = space.apply(original, space.actions[hop])
            got = model._admissible_mask(now, config, confidence=confidence)
            fresh = model_for(ActionSpace(original), rules, position)
            fresh.set_confidence_ramp(anchor, tau)
            want = fresh._admissible_mask(now, config, confidence=confidence)
            assert got.dtype == bool
            assert got.tolist() == want.tolist()
            assert got.tolist() == oracle_mask(
                model, now, config, model.confidence(now) if confidence is None else confidence
            ).tolist()
            # The caller owns what it gets: scribbling on it must not reach
            # the next call for the same inputs.
            got[:] = ~got
            again = model._admissible_mask(now, config, confidence=confidence)
            assert again.tolist() == want.tolist()

    @given(originals(), constraint_sets, st.floats(min_value=0.0, max_value=28 * DAY))
    @settings(max_examples=20, deadline=None)
    def test_memo_across_every_depth_and_slider(self, original, rules, now):
        # A grid of confidences walks the downsize depth and the suspend
        # cut through every value, and the slider sweep changes the upsize
        # depth and the suspend floor, so inputs that share some key
        # fields but not others all meet in one model's memo.  The
        # reference model computes every mask afresh.
        space = ActionSpace(original)
        model = model_for(space, rules, SliderPosition.BALANCED)
        reference_space = ActionSpace(original)
        reference = model_for(reference_space, rules, SliderPosition.BALANCED)
        queries = [
            (position, i / 10, hop)
            for position in SliderPosition
            for i in range(11)
            for hop in range(0, len(space.actions), 4)
        ]
        for position, confidence, hop in queries + queries[::-1]:
            model.set_slider(slider_params(position))
            reference.set_slider(slider_params(position))
            config = space.apply(original, space.actions[hop])
            got = model._admissible_mask(now, config, confidence=confidence)
            reference_space.transitions(config).masks.clear()
            want = reference._admissible_mask(now, config, confidence=confidence)
            assert got.tolist() == want.tolist()
