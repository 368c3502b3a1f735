"""Tests for workload reconstruction, the training env and the trainer."""

import numpy as np
import pytest

from repro.common.simtime import DAY, HOUR, Window
from repro.learning.actions import ActionSpace
from repro.costmodel.latency import LatencyScalingModel
from repro.learning.agent import DQNAgent, DQNConfig
from repro.learning.env import WarehouseEnv, reconstruct_workload
from repro.learning.features import FEATURE_DIM, WorkloadBaseline
from repro.learning.reward import RewardConfig
from repro.learning.trainer import OfflineTrainer
from repro.warehouse.api import CloudWarehouseClient
from repro.warehouse.config import WarehouseConfig
from repro.warehouse.types import WarehouseSize

from tests.conftest import drive, make_account, make_requests, make_template


#: Covers every arrival of ``history_from_sim()``'s default 12 hours.
HISTORY = Window(0, 12 * HOUR)


def history_from_sim(hours: float = 12.0):
    account, wh = make_account(seed=5, size=WarehouseSize.S, auto_suspend_seconds=300.0)
    template = make_template("w", base_work_seconds=20.0, n_partitions=3)
    times = [10.0 + i * 200.0 for i in range(int(hours * 18))]
    drive(account, wh, make_requests(template, times), hours * HOUR)
    records = account.telemetry.query_history(wh)
    model = LatencyScalingModel().fit(records)
    return records, model, account.warehouse(wh).config


class TestReconstruction:
    def test_request_per_record(self):
        records, model, _ = history_from_sim()
        requests = reconstruct_workload(records, model, HISTORY)
        assert len(requests) == len(records)
        assert [r.arrival_time for r in requests] == [rec.arrival_time for rec in records]

    def test_base_work_inferred_from_latency(self):
        records, model, _ = history_from_sim()
        requests = reconstruct_workload(records, model, HISTORY)
        # Observed on S with gamma ~0.7 default: base_work ~ 20/2^0.8*2^0.7.
        base = requests[0].template.base_work_seconds
        warm_on_s = requests[0].template.warm_latency(WarehouseSize.S)
        observed = np.median([r.execution_seconds for r in records if r.cache_hit_ratio >= 0.5])
        assert warm_on_s == pytest.approx(observed, rel=0.3)
        assert base > warm_on_s  # XS-equivalent work exceeds S latency

    def test_partitions_synthesized_from_bytes(self):
        records, model, _ = history_from_sim()
        requests = reconstruct_workload(records, model, HISTORY)
        template = requests[0].template
        assert len(template.partitions) == 3
        assert all(p.startswith("recon.") for p in template.partitions)

    def test_cold_multiplier_estimated(self):
        records, model, _ = history_from_sim()
        requests = reconstruct_workload(records, model, HISTORY)
        # History has cold and warm runs of the same template.
        assert requests[0].template.cold_multiplier > 1.0

    def test_window_keeps_each_template_fit_on_all_records(self):
        account, wh = make_account(seed=5, size=WarehouseSize.S, auto_suspend_seconds=300.0)
        steady = make_template("w", base_work_seconds=20.0, n_partitions=3)
        early = make_template("e", base_work_seconds=8.0, n_partitions=2)
        # Unsorted on purpose: the early template's arrivals come last.
        requests = make_requests(steady, [10.0 + i * 200.0 for i in range(200)])
        requests += make_requests(early, [30.0 + i * 300.0 for i in range(40)])
        drive(account, wh, requests, 12 * HOUR)
        records = account.telemetry.query_history(wh)
        model = LatencyScalingModel().fit(records)
        window = Window(6 * HOUR, 12 * HOUR)
        full = reconstruct_workload(records, model, HISTORY)
        sliced = reconstruct_workload(records, model, window)
        assert sliced == [r for r in full if window.contains(r.arrival_time)]
        assert len({r.template_hash for r in sliced}) == 1
        assert len({r.template_hash for r in full}) == 2

    def test_no_ground_truth_leakage(self):
        """Reconstruction only sees telemetry fields, never template names."""
        records, model, _ = history_from_sim()
        requests = reconstruct_workload(records, model, HISTORY)
        assert all(r.template.name.startswith("recon.") for r in requests)


class TestWarehouseEnv:
    def make_env(self, seed=0, window=Window(0, 6 * HOUR)):
        records, model, config = history_from_sim()
        requests = reconstruct_workload(records, model, window)
        space = ActionSpace(config)
        env = WarehouseEnv(
            requests,
            config,
            WorkloadBaseline.fit(records),
            space,
            RewardConfig(),
            window,
            decision_interval=1200.0,
            seed=seed,
        )
        return env, space

    def test_step_state_equals_fresh_fetches(self, monkeypatch):
        """A step's state reuses the rows it fetched for its interval as the
        recent window, and only when the two windows are equal: the last
        interval here is cut short by the episode's end, so that step
        fetches the recent window itself."""
        env, space = self.make_env(window=Window(0, 6 * HOUR + 500.0))
        env.reset()
        fetches = []
        query_history = CloudWarehouseClient.query_history

        def counted(client, warehouse, window=None, include_overhead=False):
            fetches.append(window)
            return query_history(client, warehouse, window, include_overhead)

        monkeypatch.setattr(CloudWarehouseClient, "query_history", counted)
        done = False
        while not done:
            fetches.clear()
            outcome = env.step(space.noop_index)
            done = outcome.done
            assert len(fetches) == (3 if done else 2)
            np.testing.assert_array_equal(outcome.state, env._state())

    def test_reset_returns_state(self):
        env, _ = self.make_env()
        state = env.reset()
        assert state.shape == (FEATURE_DIM,)

    def test_step_before_reset_rejected(self):
        from repro.common.errors import ConfigurationError

        env, _ = self.make_env()
        with pytest.raises(ConfigurationError):
            env.step(0)

    def test_episode_terminates(self):
        env, space = self.make_env()
        env.reset()
        steps = 0
        done = False
        while not done:
            outcome = env.step(space.noop_index)
            done = outcome.done
            steps += 1
        assert steps == env.steps_per_episode

    def test_noop_keeps_config(self):
        env, space = self.make_env()
        env.reset()
        before = env.client.current_config("WH")
        env.step(space.noop_index)
        assert env.client.current_config("WH") == before

    def test_action_changes_config(self):
        env, space = self.make_env()
        env.reset()
        idx = space.index(space.actions[0])  # downsize, suspend 60... whatever
        action = space.actions[idx]
        expected = space.apply(env.client.current_config("WH"), action)
        env.step(idx)
        assert env.client.current_config("WH") == expected

    def test_rewards_are_finite(self):
        env, space = self.make_env()
        env.reset()
        outcome = env.step(space.noop_index)
        assert np.isfinite(outcome.reward)
        assert outcome.credits >= 0.0

    def test_different_seeds_different_noise(self):
        env_a, space = self.make_env(seed=1)
        env_b, _ = self.make_env(seed=2)
        env_a.reset()
        env_b.reset()
        credits_a = sum(env_a.step(space.noop_index).credits for _ in range(6))
        credits_b = sum(env_b.step(space.noop_index).credits for _ in range(6))
        assert credits_a != credits_b


class TestOfflineTrainer:
    def test_training_runs_and_reports(self):
        records, model, config = history_from_sim()
        window = Window(0, 6 * HOUR)
        requests = reconstruct_workload(records, model, window)
        space = ActionSpace(config)
        env = WarehouseEnv(
            requests,
            config,
            WorkloadBaseline.fit(records),
            space,
            RewardConfig(),
            window,
            decision_interval=1200.0,
        )
        agent = DQNAgent(
            FEATURE_DIM, len(space), DQNConfig(warmup=16, batch_size=16), np.random.default_rng(0)
        )
        report = OfflineTrainer(agent, env).run(episodes=3)
        assert len(report.episodes) == 3
        assert all(e.steps == env.steps_per_episode for e in report.episodes)
        assert agent.train_steps > 0
