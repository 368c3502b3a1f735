"""The columnar replay buffer is bit-identical to a list-of-transitions ring.

The oracle below is the row-oriented buffer the columnar one replaced: a
``list[Transition]`` overwritten at a ring cursor, ``np.stack``-ed on
every batch.  Across ring wrap, both must agree on ``len``, on the
sampled indices, and on all six batch arrays (values and dtypes), also
after a ``state_dict`` → ``load_state_dict`` round trip.
"""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learning.buffer import ReplayBuffer, Transition

N_FEATURES = 3
N_ACTIONS = 4


class ListOracle:
    def __init__(self, capacity: int):
        self.capacity = capacity
        self.storage: list[Transition] = []
        self.cursor = 0

    def add(self, transition: Transition) -> None:
        if len(self.storage) < self.capacity:
            self.storage.append(transition)
        else:
            self.storage[self.cursor] = transition
        self.cursor = (self.cursor + 1) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        n = len(self.storage)
        return rng.integers(0, n, size=min(batch_size, n))

    def as_batches(self, idx: np.ndarray) -> tuple[np.ndarray, ...]:
        rows = [self.storage[i] for i in idx]
        return (
            np.stack([t.state for t in rows]),
            np.array([t.action for t in rows], dtype=int),
            np.array([t.reward for t in rows], dtype=float),
            np.stack([t.next_state for t in rows]),
            np.array([t.done for t in rows], dtype=bool),
            np.stack([t.next_mask for t in rows]),
        )


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
transitions = st.builds(
    Transition,
    state=st.lists(finite, min_size=N_FEATURES, max_size=N_FEATURES).map(np.array),
    action=st.integers(0, N_ACTIONS - 1),
    reward=finite,
    next_state=st.lists(finite, min_size=N_FEATURES, max_size=N_FEATURES).map(np.array),
    done=st.booleans(),
    next_mask=st.lists(st.booleans(), min_size=N_ACTIONS, max_size=N_ACTIONS).map(
        lambda bits: np.array(bits, dtype=bool)
    ),
)


def assert_same(buffer: ReplayBuffer, oracle: ListOracle, batch_size: int, seed: int) -> None:
    assert len(buffer) == len(oracle.storage)
    idx = buffer.sample(batch_size, np.random.default_rng(seed))
    expected_idx = oracle.sample(batch_size, np.random.default_rng(seed))
    assert idx.dtype == expected_idx.dtype and np.array_equal(idx, expected_idx)
    for got, want in zip(buffer.as_batches(idx), oracle.as_batches(expected_idx), strict=True):
        assert got.dtype == want.dtype
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestColumnarBufferMatchesListOracle:
    @given(
        capacity=st.integers(1, 8),
        rows=st.lists(transitions, min_size=1, max_size=30),
        batch_size=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_rows_samples_and_batches_across_wrap(self, capacity, rows, batch_size, seed):
        buffer, oracle = ReplayBuffer(capacity), ListOracle(capacity)
        for step, transition in enumerate(rows):
            buffer.add(transition)
            oracle.add(transition)
            assert_same(buffer, oracle, batch_size, seed + step)

    @given(
        capacity=st.integers(1, 8),
        rows=st.lists(transitions, min_size=0, max_size=30),
        more=st.lists(transitions, min_size=0, max_size=10),
        batch_size=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_state_dict_round_trip(self, capacity, rows, more, batch_size, seed):
        buffer, oracle = ReplayBuffer(capacity), ListOracle(capacity)
        for transition in rows:
            buffer.add(transition)
            oracle.add(transition)
        # Through JSON text, as a checkpoint carries it.
        state = json.loads(json.dumps(buffer.state_dict()))
        restored = ReplayBuffer(capacity)
        restored.load_state_dict(state)
        assert restored.state_dict() == state
        # Later adds land in the same ring slots as in the uninterrupted oracle.
        for transition in more:
            restored.add(transition)
            oracle.add(transition)
        if len(oracle.storage):
            assert_same(restored, oracle, batch_size, seed)
        else:
            assert len(restored) == 0
