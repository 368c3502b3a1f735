"""Tests for the replay buffer and DQN agent."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, RecoveryError
from repro.durability.codec import decode_array, encode_array
from repro.learning.agent import DQNAgent, DQNConfig
from repro.learning.buffer import ReplayBuffer, Transition


def transition(r: float = 1.0, a: int = 0, n_actions: int = 4) -> Transition:
    return Transition(
        state=np.zeros(3),
        action=a,
        reward=r,
        next_state=np.zeros(3),
        done=False,
        next_mask=np.ones(n_actions, dtype=bool),
    )


def truncate_rewards(state: dict) -> None:
    rewards = decode_array(state["columns"]["rewards"])
    state["columns"]["rewards"] = encode_array(rewards[:1])


class TestReplayBuffer:
    def test_capacity_ring(self):
        buffer = ReplayBuffer(capacity=3)
        for i in range(5):
            buffer.add(transition(r=float(i)))
        assert len(buffer) == 3
        rewards = buffer.as_batches(np.arange(len(buffer)))[2]
        assert set(rewards.tolist()) == {2.0, 3.0, 4.0}

    def test_sample_empty_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            ReplayBuffer().sample(4, rng)

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            ReplayBuffer(0)

    @pytest.mark.parametrize(
        "built, damage",
        [
            ((3, 2), lambda state: state.update(cursor=7)),
            ((9, 9), lambda state: state.update(capacity=3, cursor=0)),
            ((3, 2), lambda state: state.update(capacity=0)),
            ((3, 2), lambda state: state.update(cursor=0)),
            ((3, 2), lambda state: state["columns"].pop("dones")),
            ((3, 2), truncate_rewards),
        ],
        ids=[
            "cursor-past-capacity",
            "three-times-capacity",
            "zero-capacity",
            "cursor-disagrees-with-size",
            "missing-column",
            "unequal-columns",
        ],
    )
    def test_load_refuses_damaged_state(self, built, damage):
        capacity, added = built
        buffer = ReplayBuffer(capacity=capacity)
        for i in range(added):
            buffer.add(transition(r=float(i)))
        state = buffer.state_dict()
        damage(state)
        with pytest.raises(RecoveryError):
            ReplayBuffer(capacity=3).load_state_dict(state)

    def test_as_batches_shapes(self, rng):
        buffer = ReplayBuffer()
        for i in range(10):
            buffer.add(transition(a=i % 4))
        batch = buffer.sample(6, rng)
        states, actions, rewards, next_states, dones, masks = buffer.as_batches(batch)
        assert states.shape == (6, 3)
        assert actions.shape == (6,)
        assert masks.shape == (6, 4)
        assert dones.dtype == bool


class TestDQNAgent:
    def make_agent(self, **kw) -> DQNAgent:
        config = DQNConfig(warmup=8, batch_size=8, epsilon_decay_steps=10, **kw)
        return DQNAgent(3, 4, config, np.random.default_rng(0))

    def test_needs_two_actions(self):
        with pytest.raises(ConfigurationError):
            DQNAgent(3, 1)

    def test_masked_actions_never_selected(self):
        agent = self.make_agent()
        mask = np.array([False, True, False, False])
        for _ in range(50):
            assert agent.act(np.zeros(3), mask) == 1

    def test_empty_mask_rejected(self):
        agent = self.make_agent()
        with pytest.raises(ConfigurationError):
            agent.act(np.zeros(3), np.zeros(4, dtype=bool))

    def test_epsilon_decays(self):
        agent = self.make_agent()
        start = agent.epsilon
        for _ in range(20):
            agent.act(np.zeros(3), np.ones(4, dtype=bool))
        assert agent.epsilon < start
        assert agent.epsilon == pytest.approx(agent.config.epsilon_end)

    def test_greedy_respects_mask(self):
        agent = self.make_agent()
        q = agent.q_values(np.zeros(3))
        best = int(np.argmax(q))
        mask = np.ones(4, dtype=bool)
        mask[best] = False
        assert agent.greedy_action(np.zeros(3), mask) != best

    def test_observe_learns_after_warmup(self):
        agent = self.make_agent()
        losses = [agent.observe(transition()) for _ in range(20)]
        assert losses[0] is None  # warming up
        assert losses[-1] is not None

    def test_learning_moves_q_toward_reward(self):
        agent = self.make_agent()
        # Constant reward 5 on action 2, terminal transitions.
        for _ in range(400):
            agent.observe(
                Transition(
                    state=np.ones(3),
                    action=2,
                    reward=5.0,
                    next_state=np.ones(3),
                    done=True,
                    next_mask=np.ones(4, dtype=bool),
                )
            )
        q = agent.q_values(np.ones(3))
        assert q[2] == pytest.approx(5.0, abs=1.0)

    def test_target_sync(self):
        agent = self.make_agent(target_sync_every=5)
        for _ in range(60):
            agent.observe(transition())
        x = np.ones(3)
        assert np.allclose(agent.target.forward(x), agent.online.forward(x), atol=0.5)

    def test_snapshot_restore(self):
        agent = self.make_agent()
        for _ in range(30):
            agent.observe(transition())
        snapshot = agent.snapshot()
        q_before = agent.q_values(np.ones(3)).copy()
        for _ in range(30):
            agent.observe(transition(r=-10.0))
        agent.restore(snapshot)
        assert np.allclose(agent.q_values(np.ones(3)), q_before)

    def test_masked_next_state_bootstrap(self):
        """TD target must not bootstrap through masked next actions."""
        agent = self.make_agent()
        mask = np.zeros(4, dtype=bool)  # nothing admissible next
        for _ in range(200):
            agent.observe(
                Transition(
                    state=np.ones(3),
                    action=1,
                    reward=2.0,
                    next_state=np.ones(3) * 2,
                    done=False,
                    next_mask=mask,
                )
            )
        # With no admissible next action the target is just the reward.
        assert agent.q_values(np.ones(3))[1] == pytest.approx(2.0, abs=1.0)
