"""Offline training loop (Algorithm 1, lines 13-16: periodic retraining).

The trainer runs the DQN against :class:`~repro.learning.env.WarehouseEnv`
episodes built from historical telemetry.  Each episode replays the same
history under a fresh simulator seed, so the agent experiences workload
noise without ever touching live customer infrastructure — the paper's key
advantage over online-RL query optimizers (§8: "our DRL model benefits from
having access to large historical telemetry data").
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.learning.agent import DQNAgent
from repro.learning.buffer import Transition
from repro.learning.env import WarehouseEnv


@dataclass
class EpisodeStats:
    total_reward: float
    total_credits: float
    mean_loss: float
    steps: int


@dataclass
class TrainingReport:
    episodes: list[EpisodeStats] = field(default_factory=list)

    @property
    def reward_curve(self) -> list[float]:
        return [e.total_reward for e in self.episodes]


class OfflineTrainer:
    """Trains one per-warehouse agent on reconstructed history."""

    def __init__(self, agent: DQNAgent, env: WarehouseEnv):
        self.agent = agent
        self.env = env

    def run(self, episodes: int) -> TrainingReport:
        report = TrainingReport()
        for _ in range(episodes):
            report.episodes.append(self._run_episode())
        return report

    def _run_episode(self) -> EpisodeStats:
        state = self.env.reset()
        mask = self.env.current_mask()
        total_reward = 0.0
        total_credits = 0.0
        losses: list[float] = []
        steps = 0
        done = False
        while not done:
            action = self.agent.act(state, mask, explore=True)
            outcome = self.env.step(action)
            next_mask = self.env.current_mask()
            loss = self.agent.observe(
                Transition(
                    state=state,
                    action=action,
                    reward=outcome.reward,
                    next_state=outcome.state,
                    done=outcome.done,
                    next_mask=next_mask,
                )
            )
            if loss is not None:
                losses.append(loss)
            state = outcome.state
            mask = next_mask
            total_reward += outcome.reward
            total_credits += outcome.credits
            done = outcome.done
            steps += 1
        return EpisodeStats(
            total_reward=total_reward,
            total_credits=total_credits,
            mean_loss=float(np.mean(losses)) if losses else 0.0,
            steps=steps,
        )
