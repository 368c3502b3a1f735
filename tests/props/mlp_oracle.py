"""The per-array MLP the flat-parameter network replaced (test oracle).

This is :class:`repro.learning.network.MLP` as it was before its weights,
biases, gradients and Adam moments became views of contiguous vectors:
one array per layer, fresh gradient arrays per step and an Adam loop over
the six parameter arrays.  It is kept verbatim so
``tests/props/test_mlp_props.py`` can hold the library network to it bit
for bit — losses, weights, moments and ``state_dict`` bytes.  Library code
never imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import fallback_rng
from repro.durability.codec import decode_array, encode_array, require_keys


class MLP:
    """Fully-connected ReLU network with a linear head."""

    def __init__(
        self,
        input_dim: int,
        output_dim: int,
        hidden: tuple[int, ...] = (64, 64),
        rng: np.random.Generator | None = None,
        learning_rate: float = 1e-3,
    ):
        if input_dim < 1 or output_dim < 1:
            raise ConfigurationError("network dims must be positive")
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.learning_rate = learning_rate
        rng = rng or fallback_rng()
        dims = [input_dim, *hidden, output_dim]
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(dims, dims[1:]):
            # He initialization, appropriate for ReLU layers.
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))
        # Adam state.
        self._t = 0
        self._m = [np.zeros_like(w) for w in self.weights] + [
            np.zeros_like(b) for b in self.biases
        ]
        self._v = [np.zeros_like(w) for w in self.weights] + [
            np.zeros_like(b) for b in self.biases
        ]

    # ------------------------------------------------------------ inference
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q-values for a batch (or single) state. Shape (..., output_dim)."""
        single = x.ndim == 1
        h = np.atleast_2d(x).astype(float)
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ w + b, 0.0)
        out = h @ self.weights[-1] + self.biases[-1]
        return out[0] if single else out

    # ------------------------------------------------------------- training
    def train_step(
        self, states: np.ndarray, actions: np.ndarray, targets: np.ndarray
    ) -> float:
        """One Adam step on ``0.5 * (Q(s,a) - target)^2``; returns the loss."""
        batch = states.shape[0]
        activations = [states.astype(float)]
        h = activations[0]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ w + b, 0.0)
            activations.append(h)
        q = h @ self.weights[-1] + self.biases[-1]
        idx = np.arange(batch)
        td_error = q[idx, actions] - targets
        loss = float(0.5 * np.mean(td_error**2))

        # Backward pass: gradient flows only through the taken actions.
        grad_q = np.zeros_like(q)
        grad_q[idx, actions] = td_error / batch
        grads_w: list[np.ndarray] = [None] * len(self.weights)
        grads_b: list[np.ndarray] = [None] * len(self.biases)
        delta = grad_q
        for layer in range(len(self.weights) - 1, -1, -1):
            grads_w[layer] = activations[layer].T @ delta
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (activations[layer] > 0)
        self._adam_update(grads_w, grads_b)
        return loss

    def _adam_update(
        self,
        grads_w: list[np.ndarray],
        grads_b: list[np.ndarray],
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self._t += 1
        params = self.weights + self.biases
        grads = grads_w + grads_b
        for i, (p, g) in enumerate(zip(params, grads)):
            self._m[i] = beta1 * self._m[i] + (1 - beta1) * g
            self._v[i] = beta2 * self._v[i] + (1 - beta2) * g**2
            m_hat = self._m[i] / (1 - beta1**self._t)
            v_hat = self._v[i] / (1 - beta2**self._t)
            p -= self.learning_rate * m_hat / (np.sqrt(v_hat) + eps)

    # --------------------------------------------------------------- weights
    def get_parameters(self) -> list[np.ndarray]:
        return [w.copy() for w in self.weights] + [b.copy() for b in self.biases]

    def set_parameters(self, params: list[np.ndarray]) -> None:
        n = len(self.weights)
        if len(params) != n + len(self.biases):
            raise ConfigurationError("parameter list has wrong length")
        for i in range(n):
            if params[i].shape != self.weights[i].shape:
                raise ConfigurationError("parameter shape mismatch")
            self.weights[i] = params[i].copy()
        for i in range(len(self.biases)):
            if params[n + i].shape != self.biases[i].shape:
                raise ConfigurationError("parameter shape mismatch")
            self.biases[i] = params[n + i].copy()

    def clone_weights_from(self, other: "MLP") -> None:
        """Hard target-network sync."""
        self.set_parameters(other.get_parameters())

    # ----------------------------------------------------------- durability
    def state_dict(self) -> dict:
        """Full mutable state, including the Adam moments (StateCodec)."""
        return {
            "weights": [encode_array(w) for w in self.weights],
            "biases": [encode_array(b) for b in self.biases],
            "adam_t": self._t,
            "adam_m": [encode_array(m) for m in self._m],
            "adam_v": [encode_array(v) for v in self._v],
        }

    def load_state_dict(self, state: dict) -> None:
        require_keys(state, ("weights", "biases", "adam_t", "adam_m", "adam_v"), "MLP")
        self.set_parameters(
            [decode_array(s) for s in state["weights"]]
            + [decode_array(s) for s in state["biases"]]
        )
        self._t = int(state["adam_t"])
        self._m = [decode_array(s) for s in state["adam_m"]]
        self._v = [decode_array(s) for s in state["adam_v"]]
