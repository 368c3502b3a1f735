"""Tests for the smart model's decision logic."""

import numpy as np
import pytest

from repro.common.simtime import HOUR, Window
from repro.learning.actions import ActionSpace
from repro.core.constraints import ConstraintRule, ConstraintSet
from repro.core.monitoring import RealTimeFeedback
from repro.core.sliders import SliderPosition, slider_params
from repro.core.smart_model import GUARDRAIL_LOOKBACK, DecisionKind, SmartModel
from repro.costmodel.gaps import GapModel
from repro.costmodel.latency import LatencyScalingModel
from repro.costmodel.model import WarehouseCostModel
from repro.learning.agent import DQNAgent, DQNConfig
from repro.learning.features import FEATURE_DIM, FeatureExtractor, WorkloadBaseline
from repro.warehouse.api import CloudWarehouseClient
from repro.warehouse.telemetry import TelemetryStore
from repro.warehouse.types import WarehouseSize

from tests.conftest import drive, make_account, make_requests, make_template


def feedback(**kw) -> RealTimeFeedback:
    defaults = dict(
        time=12 * HOUR,
        queue_length=0,
        running_queries=0,
        recent_queries=10,
        recent_p99=5.0,
        latency_ratio=1.0,
        mean_queue_seconds=0.0,
        arrival_zscore=0.0,
        unseen_template_fraction=0.0,
        external_change=False,
        baseline_ratio_q99=1.3,
    )
    defaults.update(kw)
    return RealTimeFeedback(**defaults)


def build_smart_model(slider=SliderPosition.BALANCED, constraints=None, hours=12.0):
    account, wh = make_account(
        seed=9, size=WarehouseSize.M, auto_suspend_seconds=600.0, max_clusters=2
    )
    template = make_template("sm", base_work_seconds=10.0, n_partitions=2)
    times = [10.0 + i * 300.0 for i in range(int(hours * 12))]
    drive(account, wh, make_requests(template, times), hours * HOUR)
    client = CloudWarehouseClient(account, actor="keebo")
    window = Window(0, hours * HOUR)
    cost_model = WarehouseCostModel(client, wh).fit(window)
    original = account.telemetry.original_config(wh)
    space = ActionSpace(original)
    records = client.query_history(wh, window)
    baseline = WorkloadBaseline.fit(records)
    agent = DQNAgent(FEATURE_DIM, len(space), DQNConfig(), np.random.default_rng(0))
    model = SmartModel(
        client,
        wh,
        agent,
        space,
        FeatureExtractor(baseline, original),
        cost_model,
        constraints or ConstraintSet(),
        slider_params(slider),
    )
    return account, wh, client, model


class TestDecisions:
    def test_external_conflict_decision(self):
        account, wh, client, model = build_smart_model()
        decision, context = model.next_action(12 * HOUR, feedback(external_change=True))
        assert decision.kind == DecisionKind.EXTERNAL_CONFLICT

    def test_backoff_on_degradation(self):
        account, wh, client, model = build_smart_model()
        decision, context = model.next_action(
            12 * HOUR, feedback(latency_ratio=5.0, recent_queries=20)
        )
        assert decision.kind == DecisionKind.BACKOFF

    def test_cooldown_after_backoff(self):
        account, wh, client, model = build_smart_model()
        model.next_action(12 * HOUR, feedback(latency_ratio=5.0, recent_queries=20))
        decision, context = model.next_action(12 * HOUR + 600, feedback())
        assert decision.kind == DecisionKind.HOLD

    def test_backoff_restores_toward_original(self):
        account, wh, client, model = build_smart_model()
        # Simulate Keebo having downsized and shortened suspend earlier.
        client.alter_warehouse(wh, size=WarehouseSize.XS, auto_suspend_seconds=60.0)
        decision, context = model.next_action(
            12 * HOUR, feedback(latency_ratio=5.0, recent_queries=20)
        )
        assert decision.kind == DecisionKind.BACKOFF
        assert decision.target.size > WarehouseSize.XS
        assert decision.target.auto_suspend_seconds == 600.0

    def test_constraint_floor_enforced_first(self):
        rules = ConstraintSet(
            [ConstraintRule("force", min_size=WarehouseSize.XL, min_clusters=2)]
        )
        account, wh, client, model = build_smart_model(constraints=rules)
        decision, context = model.next_action(12 * HOUR, feedback())
        assert decision.kind == DecisionKind.CONSTRAINT_FLOOR
        assert decision.target.size == WarehouseSize.XL

    def test_learned_decision_respects_constraints(self):
        rules = ConstraintSet([ConstraintRule("nodown", allow_downsize=False)])
        account, wh, client, model = build_smart_model(constraints=rules)
        for i in range(12):
            decision, context = model.next_action(12 * HOUR + i * 600, feedback())
            assert decision.target.size >= WarehouseSize.M

    def test_never_exceeds_original_size_on_balanced(self):
        account, wh, client, model = build_smart_model()
        for i in range(12):
            decision, context = model.next_action(12 * HOUR + i * 600, feedback())
            assert decision.target.size <= WarehouseSize.M

    def test_quiet_periods_block_structural_changes(self):
        account, wh, client, model = build_smart_model()
        decision, context = model.next_action(12 * HOUR, feedback(recent_queries=0))
        current = client.current_config(wh)
        assert decision.target.size == current.size
        assert decision.target.max_clusters == current.max_clusters

    def test_slider_swap_without_retraining(self):
        account, wh, client, model = build_smart_model()
        agent_before = model.agent
        model.set_slider(slider_params(SliderPosition.LOWEST_COST))
        assert model.agent is agent_before
        assert model.params.position == SliderPosition.LOWEST_COST


class TestConfidenceRamp:
    def test_confidence_grows(self):
        account, wh, client, model = build_smart_model()
        model.set_confidence_ramp(anchor_time=0.0, tau_seconds=10 * HOUR)
        assert model.confidence(0.0) == pytest.approx(0.0, abs=0.01)
        assert 0.2 < model.confidence(5 * HOUR) < 0.7
        assert model.confidence(100 * HOUR) == 1.0

    def test_no_ramp_means_full_confidence(self):
        account, wh, client, model = build_smart_model()
        assert model.confidence(0.0) == 1.0

    def test_early_mask_blocks_aggressive_suspend(self):
        account, wh, client, model = build_smart_model()
        model.set_confidence_ramp(anchor_time=12 * HOUR, tau_seconds=30 * HOUR)
        mask = model._admissible_mask(12 * HOUR + 60, client.current_config(wh))
        for i, action in enumerate(model.action_space.actions):
            if not action.keeps_suspend and action.suspend_seconds <= 60.0:
                assert not mask[i]
        # KEEP-suspend actions stay available.
        assert mask[model.action_space.noop_index]

    def test_late_mask_unlocks_everything(self):
        account, wh, client, model = build_smart_model()
        model.set_confidence_ramp(anchor_time=0.0, tau_seconds=1.0)
        current = client.current_config(wh)
        mask = model._admissible_mask(12 * HOUR, current)
        # Every action within the slider's size band is admissible; only
        # upsizes beyond Balanced's ceiling (the original size) stay masked.
        ceiling = model.original.size
        for i, action in enumerate(model.action_space.actions):
            target = model.action_space.apply(current, action)
            assert mask[i] == (target.size <= ceiling)


class TestGuardrail:
    def test_vetoes_large_predicted_slowdown(self):
        account, wh, client, model = build_smart_model(slider=SliderPosition.BALANCED)
        current = client.current_config(wh)
        guard = model._guardrail(12 * HOUR, current)
        tiny = current.with_changes(size=WarehouseSize.XS)
        # Balanced tolerates only 15% predicted slowdown; XS from M is ~4x.
        assert not guard.verdict(tiny, model.params, pressure=False)[0]

    def test_allows_cheap_neutral_move(self):
        account, wh, client, model = build_smart_model(slider=SliderPosition.LOWEST_COST)
        current = client.current_config(wh)
        guard = model._guardrail(12 * HOUR, current)
        shorter_suspend = current.with_changes(auto_suspend_seconds=60.0)
        assert guard.verdict(shorter_suspend, model.params, pressure=False)[0]

    def test_one_history_snapshot_per_tick(self, monkeypatch):
        """A tick that replays base, original and three vetoed candidates
        fetches the guardrail window once, prepares it once, and rescales
        latencies once per warehouse size."""
        account, wh, client, model = build_smart_model(slider=SliderPosition.BALANCED)
        client.alter_warehouse(wh, auto_suspend_seconds=300.0)
        current = client.current_config(wh)
        assert current != model.original and current.size == model.original.size
        now = 12 * HOUR
        guard_window = Window(now - GUARDRAIL_LOOKBACK, now)
        calls = {"fetch": 0, "prep": 0, "sizes": []}

        def spy(owner, name, record):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                record(args, kwargs)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        def fetched(args, kwargs):
            window = args[2] if len(args) > 2 else kwargs.get("window")
            calls["fetch"] += window == guard_window

        spy(TelemetryStore, "query_history", fetched)
        spy(GapModel, "classify_arrays", lambda a, k: calls.__setitem__("prep", calls["prep"] + 1))
        spy(LatencyScalingModel, "rescale_batch", lambda a, k: calls["sizes"].append(a[5]))
        # The agent ranks three downsizes first; Balanced vetoes them all.
        downsizes = [
            i
            for i, target in enumerate(model.action_space.resulting_configs(current))
            if target.size < current.size and target.auto_suspend_seconds in (60.0, 300.0, 600.0)
        ][:3]
        q = np.zeros(len(model.action_space))
        q[downsizes] = [3.0, 2.0, 1.0]
        model.agent.q_values = lambda state: q
        decision, context = model.next_action(now, feedback())
        assert decision.reason_code == "hold.all_vetoed"
        assert [c.verdict for c in context.candidates] == ["vetoed"] * 3
        assert calls["fetch"] == 1
        assert calls["prep"] == 1
        assert calls["sizes"] == [current.size, WarehouseSize.S]

    def test_counts_vetoes(self):
        account, wh, client, model = build_smart_model()
        before = model.guardrail_vetoes
        for i in range(12):
            model.next_action(12 * HOUR + i * 600, feedback())
        assert model.guardrail_vetoes >= before
