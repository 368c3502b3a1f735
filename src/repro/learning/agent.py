"""DQN agent with action masking and a target network (§6's DRL framework).

A vanilla DQN (Mnih et al., cited by the paper) adapted for constrained
action spaces: both action selection and the TD target max are restricted to
admissible actions, so the agent never learns values through actions the
constraint engine would cancel anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import fallback_rng
from repro.common.stable_json import canonical_json
from repro.durability.codec import require_keys
from repro.learning.buffer import ReplayBuffer, Transition
from repro.learning.network import MLP


@dataclass
class DQNConfig:
    """Agent hyper-parameters."""

    hidden: tuple[int, ...] = (64, 64)
    learning_rate: float = 1e-3
    discount: float = 0.97
    batch_size: int = 64
    buffer_capacity: int = 50000
    target_sync_every: int = 200
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 600
    #: Minimum buffered transitions before learning starts.
    warmup: int = 200
    #: Double DQN (van Hasselt): select the bootstrap action with the online
    #: network, evaluate it with the target network.  Reduces the max-
    #: operator's overestimation bias, which matters here because rewards
    #: are noisy (workload noise dwarfs many actions' true value gaps).
    double_dqn: bool = False


class DQNAgent:
    """Q-learning over the warehouse action space."""

    def __init__(
        self,
        state_dim: int,
        n_actions: int,
        config: DQNConfig | None = None,
        rng: np.random.Generator | None = None,
    ):
        if n_actions < 2:
            raise ConfigurationError("need at least two actions")
        self.config = config or DQNConfig()
        self.rng = rng or fallback_rng()
        self.n_actions = n_actions
        self.online = MLP(
            state_dim, n_actions, self.config.hidden, self.rng, self.config.learning_rate
        )
        self.target = MLP(
            state_dim, n_actions, self.config.hidden, self.rng, self.config.learning_rate
        )
        self.target.clone_weights_from(self.online)
        self.buffer = ReplayBuffer(self.config.buffer_capacity)
        self.train_steps = 0
        self.env_steps = 0
        #: ``((train_steps, env_steps), text)`` of the last :meth:`state_text`.
        self._state_text: tuple | None = None

    # -------------------------------------------------------------- policies
    @property
    def epsilon(self) -> float:
        cfg = self.config
        frac = min(1.0, self.env_steps / max(cfg.epsilon_decay_steps, 1))
        return cfg.epsilon_start + frac * (cfg.epsilon_end - cfg.epsilon_start)

    def act(self, state: np.ndarray, mask: np.ndarray, explore: bool = True) -> int:
        """Pick an admissible action (epsilon-greedy during training)."""
        if not mask.any():
            raise ConfigurationError("action mask excludes every action")
        if explore:
            self.env_steps += 1
            if self.rng.random() < self.epsilon:
                allowed = np.flatnonzero(mask)
                return int(self.rng.choice(allowed))
        return self.greedy_action(state, mask)

    def greedy_action(self, state: np.ndarray, mask: np.ndarray) -> int:
        q = self.online.forward(state)
        q = np.where(mask, q, -np.inf)
        return int(np.argmax(q))

    def q_values(self, state: np.ndarray) -> np.ndarray:
        return self.online.forward(state)

    # -------------------------------------------------------------- learning
    def observe(self, transition: Transition) -> float | None:
        """Store a transition and (maybe) do one learning step."""
        self.buffer.add(transition)
        if len(self.buffer) < max(self.config.warmup, self.config.batch_size):
            return None
        return self.learn_step()

    def learn_step(self) -> float:
        idx = self.buffer.sample(self.config.batch_size, self.rng)
        states, actions, rewards, next_states, dones, next_masks = self.buffer.as_batches(idx)
        target_q = self.target.forward(next_states)
        if self.config.double_dqn:
            online_q = np.where(next_masks, self.online.forward(next_states), -np.inf)
            # Guard fully-masked rows before argmax (bootstrap handled below).
            selectable = np.isfinite(online_q).any(axis=1)
            choices = np.argmax(
                np.where(selectable[:, None], online_q, 0.0), axis=1
            )
            best_next = target_q[np.arange(len(choices)), choices]
            best_next = np.where(selectable, best_next, -np.inf)
        else:
            next_q = np.where(next_masks, target_q, -np.inf)
            best_next = next_q.max(axis=1)
        # Terminal states (or states with no admissible action) bootstrap 0.
        best_next = np.where(np.isfinite(best_next), best_next, 0.0)
        targets = rewards + np.where(dones, 0.0, self.config.discount * best_next)
        loss = self.online.train_step(states, actions, targets)
        self.train_steps += 1
        if self.train_steps % self.config.target_sync_every == 0:
            self.target.clone_weights_from(self.online)
        return loss

    # ----------------------------------------------------------- durability
    def state_dict(self) -> dict:
        """Everything mutable: both networks (with optimizer moments), the
        replay buffer, and the step counters (StateCodec).

        The exploration RNG is *not* captured here — it is a registry
        stream (``keebo.agent.<wh>``) restored by the service alongside
        every other stream.
        """
        return {
            "online": self.online.state_dict(),
            "target": self.target.state_dict(),
            "buffer": self.buffer.state_dict(),
            "train_steps": self.train_steps,
            "env_steps": self.env_steps,
        }

    def state_text(self) -> str:
        """``canonical_json(state_dict())``, encoded once per step count.

        Only :meth:`learn_step` changes the networks and only an exploring
        :meth:`act` precedes a buffer write, each bumping one counter, so
        the text stands while ``(train_steps, env_steps)`` does;
        :meth:`load_state_dict` drops it.
        """
        steps = (self.train_steps, self.env_steps)
        if self._state_text is None or self._state_text[0] != steps:
            self._state_text = (steps, canonical_json(self.state_dict()))
        return self._state_text[1]

    def load_state_dict(self, state: dict) -> None:
        self._state_text = None
        require_keys(
            state, ("online", "target", "buffer", "train_steps", "env_steps"), "DQNAgent"
        )
        self.online.load_state_dict(state["online"])
        self.target.load_state_dict(state["target"])
        self.buffer.load_state_dict(state["buffer"])
        self.train_steps = int(state["train_steps"])
        self.env_steps = int(state["env_steps"])
