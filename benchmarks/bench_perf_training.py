"""Perf check: offline DQN training with the work-array network vs the oracle.

Every onboarding and daily retrain runs :class:`OfflineTrainer` (§6), and
each environment step past the warm-up takes one ``DQNAgent.learn_step``.
The library network writes a step's activations, ReLU masks and backprop
deltas into work arrays it keeps per batch size; the per-array network it
descends from remains as the bit-exact test oracle (``tests/props/mlp_oracle.py``;
``tests/props/test_mlp_props.py`` proves the equivalence step by step).
This bench trains two agents on fig4a's reconstructed workload, one on
each network, and asserts every loss, weight, Adam moment and the agent's
``state_dict`` bytes agree; it then times one training run per side.

Scale comes from ``REPRO_PERF_SCALE``: ``full`` (default; the onboarding
run's 6 episodes of one day) or ``smoke`` (2 episodes, for CI).  No timing
floor is asserted: the numbers are recorded.
"""

import os
import timeit
from unittest import mock

from repro.common.rng import RngRegistry
from repro.common.simtime import Window
from repro.common.stable_json import canonical_json
from repro.experiments.runner import onboard
from repro.experiments.scenarios import fig4a_scenario
from repro.learning import agent as agent_module
from repro.learning.agent import DQNAgent
from repro.learning.env import WarehouseEnv, reconstruct_workload
from repro.learning.features import FEATURE_DIM
from repro.learning.network import MLP
from repro.learning.trainer import OfflineTrainer

from benchmarks.conftest import record_result, run_once
from tests.props.mlp_oracle import MLP as OracleMLP

SCALE = os.environ.get("REPRO_PERF_SCALE", "full")
EPISODES = {"full": 6, "smoke": 2}[SCALE]
AGENT_SEED = 4242
ENV_SEED = 17


def onboarded():
    """fig4a at its onboarding instant, with no training run there."""
    scenario = fig4a_scenario()
    scenario.optimizer_config.onboarding_episodes = 0
    _, optimizer = onboard(scenario)
    return optimizer


def make_env(optimizer) -> WarehouseEnv:
    """The onboarding run's environment, as ``WarehouseOptimizer._train``
    builds it."""
    config = optimizer.config
    now = optimizer.account.sim.now
    history = Window(max(0.0, now - config.training_window), now)
    records = optimizer.client.query_history(optimizer.warehouse, history)
    episode = Window(max(history.start, history.end - config.episode_length), history.end)
    return WarehouseEnv(
        reconstruct_workload(records, optimizer.cost_model.latency_model, episode),
        optimizer.action_space.original,
        optimizer.baseline,
        optimizer.action_space,
        optimizer.params.reward_config(),
        episode,
        decision_interval=config.decision_interval,
        mask_fn=lambda t, cfg: optimizer.smart_model._admissible_mask(t, cfg, confidence=1.0),
        seed=ENV_SEED,
    )


def make_agent(optimizer, network: type) -> DQNAgent:
    with mock.patch.object(agent_module, "MLP", network):
        return DQNAgent(
            FEATURE_DIM,
            len(optimizer.action_space),
            optimizer.config.agent,
            RngRegistry(AGENT_SEED).stream("perf_training.agent"),
        )


def train(optimizer, network: type, losses: list | None = None) -> tuple[DQNAgent, float]:
    """One training run; returns the agent and its seconds.  With
    ``losses``, every learning step's loss is appended to it."""
    agent = make_agent(optimizer, network)
    if losses is not None:
        learn_step = agent.learn_step

        def recorded() -> float:
            losses.append(learn_step())
            return losses[-1]

        agent.learn_step = recorded
    trainer = OfflineTrainer(agent, make_env(optimizer))
    return agent, timeit.timeit(lambda: trainer.run(EPISODES), number=1)


def _arrays(net) -> list[str]:
    return [repr(a.tolist()) for a in net.weights + net.biases + list(net._m) + list(net._v)]


def test_perf_training(benchmark):
    optimizer = onboarded()
    # The two networks must train bit for bit alike before either is worth timing.
    lib_losses: list[float] = []
    ora_losses: list[float] = []
    library, _ = train(optimizer, MLP, lib_losses)
    oracle, _ = train(optimizer, OracleMLP, ora_losses)
    assert lib_losses, "the run never got past the warm-up"
    assert repr(lib_losses) == repr(ora_losses), "losses differ from the oracle network"
    for got, want in ((library.online, oracle.online), (library.target, oracle.target)):
        assert _arrays(got) == _arrays(want), "weights or Adam moments differ"
    assert canonical_json(library.state_dict()) == canonical_json(oracle.state_dict())

    def compare():
        return train(optimizer, MLP)[1], train(optimizer, OracleMLP)[1]

    t_lib, t_ora = run_once(benchmark, compare)
    speedup = t_ora / t_lib
    record_result(
        "perf_training",
        f"OfflineTrainer.run on fig4a's reconstructed workload, {EPISODES} episodes, "
        f"{library.env_steps} env steps, {library.train_steps} learning steps "
        f"({SCALE} scale):\n"
        f"  work-array network: {t_lib:8.3f} s\n"
        f"  oracle network:     {t_ora:8.3f} s\n"
        f"  speedup:            {speedup:8.2f}x",
        data={
            "episodes": EPISODES,
            "env_steps": library.env_steps,
            "learning_steps": library.train_steps,
            "seconds_library": t_lib,
            "seconds_oracle": t_ora,
            "speedup": speedup,
        },
    )
