"""Admissibility masks must never alias the cached transition table.

Masks are built from tables cached per config, so a caller that mutates
a returned mask must not change what the next call answers.
"""

import numpy as np
import pytest

from repro.common.simtime import HOUR, Window
from repro.core.constraints import ConstraintRule
from repro.core.sliders import SliderPosition
from repro.costmodel.latency import LatencyScalingModel
from repro.learning.actions import ActionSpace
from repro.learning.env import WarehouseEnv, reconstruct_workload
from repro.learning.features import WorkloadBaseline
from repro.learning.reward import RewardConfig
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.types import WarehouseSize

from tests.conftest import drive, make_account, make_requests, make_template
from tests.props.test_action_table_props import model_for


def original(**kw) -> WarehouseConfig:
    defaults = dict(size=WarehouseSize.L, auto_suspend_seconds=1800.0, max_clusters=4)
    defaults.update(kw)
    return WarehouseConfig(**defaults)


class TestMaskAliasing:
    @pytest.mark.parametrize(
        "rules", [(), (ConstraintRule("no-downsize", allow_downsize=False),)]
    )
    def test_mutating_a_mask_does_not_change_the_next(self, rules):
        space = ActionSpace(original())
        model = model_for(space, rules, SliderPosition.BALANCED)
        current = original(size=WarehouseSize.M)
        first = model._admissible_mask(0.0, current, confidence=0.5)
        expected = first.copy()
        first[:] = False
        again = model._admissible_mask(0.0, current, confidence=0.5)
        assert again.tolist() == expected.tolist()
        again &= np.zeros(len(space), dtype=bool)
        assert model._admissible_mask(0.0, current, confidence=0.5).tolist() == (
            expected.tolist()
        )

    def test_masks_never_share_memory_with_the_table(self):
        space = ActionSpace(original())
        model = model_for(space, (), SliderPosition.BALANCED)
        a = model._admissible_mask(0.0, original(), confidence=1.0)
        b = model._admissible_mask(0.0, original(), confidence=1.0)
        assert a is not b and not np.shares_memory(a, b)
        assert not np.shares_memory(a, space.transitions(original()).target_sizes)


class TestEnvMaskIsFresh:
    def make_env(self, space, mask_fn):
        account, wh = make_account(seed=5, size=WarehouseSize.S, auto_suspend_seconds=300.0)
        template = make_template("w", base_work_seconds=20.0, n_partitions=3)
        drive(account, wh, make_requests(template, [10.0 + i * 200.0 for i in range(60)]),
              4 * HOUR)
        records = account.telemetry.query_history(wh)
        window = Window(0, 2 * HOUR)
        requests = reconstruct_workload(records, LatencyScalingModel().fit(records), window)
        env = WarehouseEnv(
            requests, space.original, WorkloadBaseline.fit(records), space, RewardConfig(),
            window, decision_interval=1200.0, mask_fn=mask_fn,
        )
        env.reset()
        return env

    @pytest.mark.parametrize("masked", [False, True])
    def test_current_mask_is_a_fresh_array_each_call(self, masked):
        space = ActionSpace(WarehouseConfig(size=WarehouseSize.S, auto_suspend_seconds=300.0))
        model = model_for(space, (), SliderPosition.BALANCED)
        mask_fn = (
            (lambda t, cfg: model._admissible_mask(t, cfg, confidence=1.0)) if masked else None
        )
        env = self.make_env(space, mask_fn)
        first = env.current_mask()
        expected = first.copy()
        first &= np.zeros(len(space), dtype=bool)
        second = env.current_mask()
        assert second is not first
        assert second.tolist() == expected.tolist()
