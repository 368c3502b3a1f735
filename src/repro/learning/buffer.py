"""Experience replay buffer for the DQN.

Stores transitions ``(state, action, reward, next_state, done, next_mask)``.
The next-state action mask matters because customer constraints make the
admissible action set time-dependent: the TD target must max only over
actions that will actually be available (§4.3 "non-compliant actions are
cancelled").

Storage is columnar: six arrays of ``capacity`` rows sharing one ring
cursor, allocated at the first :meth:`ReplayBuffer.add` with the dtypes
and shapes of that transition.  :meth:`ReplayBuffer.sample` draws row
indices and :meth:`ReplayBuffer.as_batches` gathers them by fancy
indexing.  The durable form is one ``encode_array`` record per column
over the filled prefix, validated where it enters
(:meth:`ReplayBuffer.load_state_dict`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError, RecoveryError
from repro.durability.codec import decode_array, encode_array, require_keys

#: Column names, in ``Transition`` field order (the ``as_batches`` order).
COLUMNS = ("states", "actions", "rewards", "next_states", "dones", "next_masks")

Batches = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class Transition:
    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    done: bool
    next_mask: np.ndarray  # bool per action


class ReplayBuffer:
    """Fixed-capacity ring buffer with uniform sampling."""

    def __init__(self, capacity: int = 20000):
        if capacity < 1:
            raise ConfigurationError("buffer capacity must be positive")
        self.capacity = capacity
        self._columns: tuple[np.ndarray, ...] | None = None
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def add(self, transition: Transition) -> None:
        t = transition
        row = (t.state, t.action, t.reward, t.next_state, t.done, t.next_mask)
        if self._columns is None:
            state, next_state, mask = map(np.asarray, (t.state, t.next_state, t.next_mask))
            self._allocate(
                [
                    (state.dtype, state.shape),
                    (np.dtype(int), ()),
                    (np.dtype(float), ()),
                    (next_state.dtype, next_state.shape),
                    (np.dtype(bool), ()),
                    (mask.dtype, mask.shape),
                ]
            )
        for column, value in zip(self._columns, row):
            column[self._cursor] = value
        self._cursor = (self._cursor + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """Uniform row indices (with replacement) for :meth:`as_batches`."""
        if not self._size:
            raise ConfigurationError("cannot sample from an empty buffer")
        return rng.integers(0, self._size, size=min(batch_size, self._size))

    def as_batches(self, idx: np.ndarray) -> Batches:
        """Gather rows ``idx`` of every column for a vectorized update."""
        return tuple(column[idx] for column in self._columns)

    def _allocate(self, specs: list[tuple[np.dtype, tuple[int, ...]]]) -> None:
        # np.empty: pages are only touched as the ring fills.
        self._columns = tuple(
            np.empty((self.capacity, *shape), dtype=dtype) for dtype, shape in specs
        )

    # ----------------------------------------------------------- durability
    def state_dict(self) -> dict:
        columns = self._columns or ()
        return {
            "capacity": self.capacity,
            "cursor": self._cursor,
            "columns": {
                name: encode_array(column[: self._size])
                for name, column in zip(COLUMNS, columns)
            },
        }

    def load_state_dict(self, state: dict) -> None:
        require_keys(state, ("capacity", "cursor", "columns"), "ReplayBuffer")
        capacity, cursor = int(state["capacity"]), int(state["cursor"])
        encoded = state["columns"]
        if capacity < 1:
            raise RecoveryError(f"ReplayBuffer capacity {capacity} is not positive")
        if encoded and set(encoded) != set(COLUMNS):
            raise RecoveryError(f"ReplayBuffer columns {sorted(encoded)} are not {COLUMNS}")
        arrays = [decode_array(encoded[name]) for name in COLUMNS] if encoded else []
        lengths = {array.shape[:1] for array in arrays}
        if len(lengths) > 1 or () in lengths:
            raise RecoveryError(f"ReplayBuffer columns have unequal lengths {sorted(lengths)}")
        size = lengths.pop()[0] if lengths else 0
        if size > capacity:
            raise RecoveryError(f"ReplayBuffer holds {size} rows, capacity {capacity}")
        if not (cursor == size if size < capacity else 0 <= cursor < capacity):
            raise RecoveryError(
                f"ReplayBuffer cursor {cursor} disagrees with {size} rows of {capacity}"
            )
        self.capacity, self._cursor, self._size = capacity, cursor, size
        self._columns = None
        if arrays:
            self._allocate([(array.dtype, array.shape[1:]) for array in arrays])
            for column, array in zip(self._columns, arrays):
                column[:size] = array
