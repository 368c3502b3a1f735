"""A small numpy MLP with Adam — the function approximator behind the DQN.

No deep-learning framework is available offline, so the forward/backward
passes are hand-rolled.  The network maps a state feature vector to one
Q-value per discrete action; training minimizes squared TD error on the
actions actually taken (standard DQN semi-gradient update).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ConfigurationError, RecoveryError
from repro.common.rng import fallback_rng
from repro.durability.codec import decode_array, encode_array, require_keys


class MLP:
    """Fully-connected ReLU network with a linear head.

    Weights, biases, their gradients and both Adam moments each live in one
    contiguous float64 vector, laid out weights first then biases, layer by
    layer.  ``weights``/``biases`` (and the moment lists ``_m``/``_v``) are
    per-layer views of those vectors: backward writes each layer's gradient
    straight into its view, and Adam is one pass of in-place ufuncs over
    the whole vector.  Every element sees the same float operations, in the
    same order, as an Adam loop over separate arrays, so training is
    bit-identical to it (``tests/props/test_mlp_props.py``).

    :meth:`train_step` writes its activations, ReLU masks and backprop
    deltas into work arrays kept for the batch size it last trained on, so
    a training run at one batch size allocates them once.  They are
    scratch, not state: nothing reads them between steps.
    """

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
        layers = list(zip(dims, dims[1:]))
        self._shapes = [*layers, *((fan_out,) for _, fan_out in layers)]
        n_params = sum(int(np.prod(shape)) for shape in self._shapes)
        self._params = np.zeros(n_params)
        self._grads = np.zeros(n_params)
        self._m_flat = np.zeros(n_params)
        self._v_flat = np.zeros(n_params)
        self._scratch = (np.empty(n_params), np.empty(n_params))
        self._hidden = tuple(hidden)
        self._work: tuple | None = None
        params = self._views(self._params)
        self.weights: list[np.ndarray] = params[: len(layers)]
        self.biases: list[np.ndarray] = params[len(layers) :]
        grads = self._views(self._grads)
        self._grads_w, self._grads_b = grads[: len(layers)], grads[len(layers) :]
        for w, (fan_in, fan_out) in zip(self.weights, layers):
            # He initialization, appropriate for ReLU layers.
            scale = np.sqrt(2.0 / fan_in)
            w[...] = rng.normal(0.0, scale, size=(fan_in, fan_out))
        # Adam state: per-array views, in weights-then-biases order.
        self._t = 0
        self._m = self._views(self._m_flat)
        self._v = self._views(self._v_flat)

    def _views(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-array views of a flat vector, in weights-then-biases order."""
        views, offset = [], 0
        for shape in self._shapes:
            size = int(np.prod(shape))
            views.append(flat[offset : offset + size].reshape(shape))
            offset += size
        return views

    # ------------------------------------------------------------ inference
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Q-values for a batch (or single) state. Shape (..., output_dim)."""
        single = x.ndim == 1
        h = np.asarray(np.atleast_2d(x), dtype=float)
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ w
            np.add(h, b, out=h)
            np.maximum(h, 0.0, out=h)
        out = h @ self.weights[-1]
        np.add(out, self.biases[-1], out=out)
        return out[0] if single else out

    # ------------------------------------------------------------- training
    def _work_arrays(self, batch: int) -> tuple:
        """``(rows, hidden, relu, deltas, q, grad_q)`` for ``batch`` rows,
        reused while the batch size stays the same."""
        if self._work is None or self._work[0].shape[0] != batch:
            hidden = self._hidden
            self._work = (
                np.arange(batch),
                [np.empty((batch, width)) for width in hidden],
                [np.empty((batch, width), dtype=bool) for width in hidden],
                [np.empty((batch, width)) for width in hidden],
                np.empty((batch, self.output_dim)),
                np.empty((batch, self.output_dim)),
            )
        return self._work

    def train_step(
        self, states: np.ndarray, actions: np.ndarray, targets: np.ndarray
    ) -> float:
        """One Adam step on ``0.5 * (Q(s,a) - target)^2``; returns the loss."""
        batch = states.shape[0]
        idx, hidden, relu, deltas, q, grad_q = self._work_arrays(batch)
        h = np.asarray(states, dtype=float)
        activations = [h]
        for w, b, out in zip(self.weights[:-1], self.biases[:-1], hidden):
            np.matmul(h, w, out=out)
            np.add(out, b, out=out)
            h = np.maximum(out, 0.0, out=out)
            activations.append(h)
        np.matmul(h, self.weights[-1], out=q)
        np.add(q, self.biases[-1], out=q)
        td_error = q[idx, actions] - targets
        loss = float(0.5 * np.mean(td_error**2))

        # Backward pass: gradient flows only through the taken actions, and
        # each layer's gradient is written into its view of the flat vector.
        grad_q.fill(0.0)
        grad_q[idx, actions] = td_error / batch
        delta = grad_q
        for layer in range(len(self.weights) - 1, -1, -1):
            np.matmul(activations[layer].T, delta, out=self._grads_w[layer])
            delta.sum(axis=0, out=self._grads_b[layer])
            if layer > 0:
                previous = deltas[layer - 1]
                np.matmul(delta, self.weights[layer].T, out=previous)
                np.greater(activations[layer], 0, out=relu[layer - 1])
                delta = np.multiply(previous, relu[layer - 1], out=previous)
        self._adam_step()
        return loss

    def _adam_step(
        self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8
    ) -> None:
        """One Adam update of every parameter from the flat gradient."""
        self._t += 1
        g, m, v = self._grads, self._m_flat, self._v_flat
        a, b = self._scratch
        # m = beta1 * m + (1 - beta1) * g
        np.multiply(m, beta1, out=m)
        np.multiply(g, 1 - beta1, out=a)
        np.add(m, a, out=m)
        # v = beta2 * v + (1 - beta2) * g**2
        np.multiply(v, beta2, out=v)
        np.square(g, out=a)
        np.multiply(a, 1 - beta2, out=a)
        np.add(v, a, out=v)
        # p -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps)
        np.divide(v, 1 - beta2**self._t, out=a)
        np.sqrt(a, out=a)
        np.add(a, eps, out=a)
        np.divide(m, 1 - beta1**self._t, out=b)
        np.multiply(b, self.learning_rate, out=b)
        np.divide(b, a, out=b)
        np.subtract(self._params, b, out=self._params)

    # --------------------------------------------------------------- weights
    def get_parameters(self) -> list[np.ndarray]:
        return [w.copy() for w in self.weights] + [b.copy() for b in self.biases]

    def set_parameters(self, params: list[np.ndarray]) -> None:
        views = self.weights + self.biases
        if len(params) != len(views):
            raise ConfigurationError("parameter list has wrong length")
        if any(p.shape != view.shape for p, view in zip(params, views)):
            raise ConfigurationError("parameter shape mismatch")
        for p, view in zip(params, views):
            view[...] = p

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
        """Restore :meth:`state_dict`; a damaged state changes nothing.

        Refuses with :class:`RecoveryError` Adam moments whose count or
        shapes disagree with the parameters, and a negative step count
        (left unchecked, a ``(1,)`` moment would train on by broadcasting).
        Parameter lists are checked by :meth:`set_parameters`.
        """
        require_keys(state, ("weights", "biases", "adam_t", "adam_m", "adam_v"), "MLP")
        t = int(state["adam_t"])
        if t < 0:
            raise RecoveryError(f"MLP adam_t {t} is negative")
        m = [decode_array(s) for s in state["adam_m"]]
        v = [decode_array(s) for s in state["adam_v"]]
        for key, moments in (("adam_m", m), ("adam_v", v)):
            shapes = [moment.shape for moment in moments]
            if shapes != [view.shape for view in self._m]:
                raise RecoveryError(f"MLP {key} shapes {shapes} disagree with the parameters")
        self.set_parameters(
            [decode_array(s) for s in state["weights"]]
            + [decode_array(s) for s in state["biases"]]
        )
        self._t = t
        for view, moment in zip(self._m + self._v, m + v):
            view[...] = moment
