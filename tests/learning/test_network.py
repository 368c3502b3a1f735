"""Tests for the numpy MLP."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, RecoveryError
from repro.common.stable_json import canonical_json
from repro.durability.codec import encode_array
from repro.learning.network import MLP


def broadcastable_moments(state: dict) -> None:
    state["adam_m"] = [encode_array(np.zeros(1)) for _ in state["adam_m"]]


def trained() -> MLP:
    rng = np.random.default_rng(4)
    net = MLP(3, 2, hidden=(5,), rng=rng)
    for _ in range(3):
        net.train_step(rng.normal(size=(4, 3)), rng.integers(0, 2, size=4), rng.normal(size=4))
    return net


class TestMLP:
    def test_forward_shapes(self):
        net = MLP(4, 3, hidden=(8,))
        single = net.forward(np.zeros(4))
        batch = net.forward(np.zeros((5, 4)))
        assert single.shape == (3,)
        assert batch.shape == (5, 3)

    def test_invalid_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            MLP(0, 3)

    def test_deterministic_init(self):
        a = MLP(4, 2, rng=np.random.default_rng(1))
        b = MLP(4, 2, rng=np.random.default_rng(1))
        x = np.ones(4)
        assert np.allclose(a.forward(x), b.forward(x))

    def test_training_reduces_loss(self):
        rng = np.random.default_rng(0)
        net = MLP(3, 2, hidden=(16, 16), rng=rng, learning_rate=5e-3)
        states = rng.normal(size=(256, 3))
        actions = rng.integers(0, 2, size=256)
        # Learnable target: q[a] should approximate a linear function.
        targets = states[:, 0] * (actions == 0) + states[:, 1] * (actions == 1)
        first = net.train_step(states, actions, targets)
        for _ in range(300):
            last = net.train_step(states, actions, targets)
        assert last < 0.2 * first

    def test_gradient_only_flows_through_taken_action(self):
        rng = np.random.default_rng(2)
        net = MLP(2, 3, hidden=(8,), rng=rng)
        states = np.ones((4, 2))
        actions = np.zeros(4, dtype=int)
        before = net.forward(np.ones(2)).copy()
        for _ in range(50):
            net.train_step(states, actions, np.full(4, 10.0))
        after = net.forward(np.ones(2))
        # The trained head moved clearly more than the untouched heads
        # (hidden layers are shared, so the others shift a little too).
        assert abs(after[0] - before[0]) > 2 * abs(after[1] - before[1])

    def test_parameter_roundtrip(self):
        net = MLP(3, 2, rng=np.random.default_rng(3))
        params = net.get_parameters()
        other = MLP(3, 2, rng=np.random.default_rng(99))
        other.set_parameters(params)
        x = np.array([0.5, -0.5, 1.0])
        assert np.allclose(net.forward(x), other.forward(x))

    def test_set_parameters_shape_check(self):
        net = MLP(3, 2)
        bad = [np.zeros((2, 2))] * 4
        with pytest.raises(ConfigurationError):
            net.set_parameters(bad)

    def test_clone_weights_from(self):
        a = MLP(3, 2, rng=np.random.default_rng(1))
        b = MLP(3, 2, rng=np.random.default_rng(2))
        b.clone_weights_from(a)
        x = np.ones(3)
        assert np.allclose(a.forward(x), b.forward(x))

    def test_get_parameters_returns_copies(self):
        net = MLP(2, 2)
        params = net.get_parameters()
        params[0][:] = 999.0
        assert not np.allclose(net.weights[0], 999.0)

    @pytest.mark.parametrize(
        "damage",
        [
            broadcastable_moments,
            lambda state: state["adam_m"].pop(),
            lambda state: state["adam_v"].append(state["adam_v"][0]),
            lambda state: state["adam_v"].__setitem__(0, encode_array(np.zeros((5, 3)))),
            lambda state: state.update(adam_t=-1),
        ],
        ids=[
            "broadcastable-moments",
            "short-moment-list",
            "long-moment-list",
            "transposed-moment",
            "negative-step",
        ],
    )
    def test_load_refuses_damaged_state(self, damage):
        state = trained().state_dict()
        damage(state)
        net = MLP(3, 2, hidden=(5,), rng=np.random.default_rng(9))
        before = canonical_json(net.state_dict())
        with pytest.raises(RecoveryError):
            net.load_state_dict(state)
        assert canonical_json(net.state_dict()) == before

    def test_state_round_trip_is_byte_identical(self):
        net = trained()
        other = MLP(3, 2, hidden=(5,), rng=np.random.default_rng(9))
        other.load_state_dict(net.state_dict())
        assert canonical_json(other.state_dict()) == canonical_json(net.state_dict())
