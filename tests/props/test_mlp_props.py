"""The flat-parameter MLP is bit-identical to the per-array one it replaced.

The oracle (``tests/props/mlp_oracle.py``) keeps one array per layer and
runs Adam as a loop over them.  The library network keeps parameters,
gradients and moments as contiguous vectors with per-layer views.  Over
random shapes, batches and step counts both must agree on every loss
(``repr``-equal), every weight and moment (``repr``-equal), and the
canonical ``state_dict`` bytes after each step, also across a
``state_dict`` -> ``load_state_dict`` round trip in the middle of training.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.stable_json import canonical_json
from repro.learning.network import MLP

from tests.props.mlp_oracle import MLP as OracleMLP

networks = st.tuples(
    st.integers(1, 12),
    st.integers(1, 10),
    st.lists(st.integers(1, 24), min_size=0, max_size=3).map(tuple),
    st.sampled_from([1e-3, 5e-3, 0.1]),
)


def assert_same(net: MLP, oracle: OracleMLP) -> None:
    for got, want in zip(
        net.weights + net.biases + net._m + net._v,
        oracle.weights + oracle.biases + oracle._m + oracle._v,
        strict=True,
    ):
        assert got.shape == want.shape
        assert repr(got.tolist()) == repr(want.tolist())
    assert net._t == oracle._t
    assert canonical_json(net.state_dict()) == canonical_json(oracle.state_dict())


def batch(rng: np.random.Generator, size: int, input_dim: int, output_dim: int):
    states = rng.normal(size=(size, input_dim)) * rng.choice([0.1, 1.0, 50.0])
    actions = rng.integers(0, output_dim, size=size)
    targets = rng.normal(size=size) * 10.0
    return states, actions, targets


class TestFlatMLPMatchesOracle:
    @given(
        networks,
        st.integers(0, 2**32 - 1),
        st.lists(st.integers(1, 40), min_size=1, max_size=12),
        st.integers(0, 11),
    )
    @settings(max_examples=60, deadline=None)
    def test_training_bit_identical(self, shape, seed, batch_sizes, round_trip_at):
        input_dim, output_dim, hidden, learning_rate = shape
        net = MLP(input_dim, output_dim, hidden, np.random.default_rng(seed), learning_rate)
        oracle = OracleMLP(
            input_dim, output_dim, hidden, np.random.default_rng(seed), learning_rate
        )
        assert_same(net, oracle)
        data = np.random.default_rng(seed + 1)
        for step, size in enumerate(batch_sizes):
            states, actions, targets = batch(data, size, input_dim, output_dim)
            assert repr(net.train_step(states, actions, targets)) == repr(
                oracle.train_step(states, actions, targets)
            )
            assert_same(net, oracle)
            probe = data.normal(size=(3, input_dim))
            assert repr(net.forward(probe).tolist()) == repr(oracle.forward(probe).tolist())
            if step == round_trip_at:
                # Both restore from the library's exported state.
                state = net.state_dict()
                net = MLP(input_dim, output_dim, hidden, np.random.default_rng(0), learning_rate)
                net.load_state_dict(state)
                oracle = OracleMLP(
                    input_dim, output_dim, hidden, np.random.default_rng(0), learning_rate
                )
                oracle.load_state_dict(state)
                assert_same(net, oracle)

    @given(networks, st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_target_sync_bit_identical(self, shape, seed):
        input_dim, output_dim, hidden, learning_rate = shape
        net = MLP(input_dim, output_dim, hidden, np.random.default_rng(seed), learning_rate)
        oracle = OracleMLP(
            input_dim, output_dim, hidden, np.random.default_rng(seed), learning_rate
        )
        data = np.random.default_rng(seed + 1)
        states, actions, targets = batch(data, 8, input_dim, output_dim)
        net.train_step(states, actions, targets)
        oracle.train_step(states, actions, targets)
        target = MLP(input_dim, output_dim, hidden, np.random.default_rng(seed + 2))
        target_oracle = OracleMLP(input_dim, output_dim, hidden, np.random.default_rng(seed + 2))
        target.clone_weights_from(net)
        target_oracle.clone_weights_from(oracle)
        assert_same(target, target_oracle)
        # The clone is a copy: training the source leaves the target alone.
        net.train_step(states, actions, targets)
        oracle.train_step(states, actions, targets)
        assert_same(target, target_oracle)
