"""Multi-layer perceptrons used by the TD3 actor and critics.

The architectures follow Orca's agent: two hidden layers with ReLU
activations; the actor ends with a tanh squashing the coarse-grained action
into ``[-1, 1]`` (Eq. 1 of the paper then maps it to a cwnd multiplier), and
the critics end with a linear head producing a scalar Q-value.

Flat parameter buffers
----------------------

An :class:`MLP` keeps all of its weights and biases in one contiguous float64
buffer (:attr:`MLP.param_buffer`) and all of its gradients in a second one
(:attr:`MLP.grad_buffer`); every :class:`~repro.nn.layers.Dense` array is a
view into them, each starting on a 64-byte boundary (zero padding between
arrays).  Whole-network operations then cost one set of ufunc calls instead
of one per array: ``Adam.for_model`` steps the buffer, ``zero_grad`` is one
``fill`` and the Polyak target update is one expression over the buffer.
Element-wise arithmetic gives the same bits whatever the memory layout, so
training is bit-identical to per-array updates.  Code that touches layer
arrays must update them in place (``param[...] = value``) to keep the views.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.nn.layers import Dense, Identity, Layer, ReLU, Sequential, Tanh

__all__ = ["MLP", "make_actor", "make_critic"]

_ACTIVATIONS = {
    "relu": ReLU,
    "tanh": Tanh,
    "linear": Identity,
    "identity": Identity,
}

#: Buffer offsets are rounded up to this many float64 elements (64 bytes).
_ALIGN = 8


def _padded(size: int) -> int:
    return -(-size // _ALIGN) * _ALIGN


def _blank_like(layer: Layer) -> Layer:
    """A layer of the same kind without arrays or caches (``MLP._bind`` supplies them)."""
    if isinstance(layer, Dense):
        blank = Dense.__new__(Dense)
        blank._cached_input = None
        return blank
    return type(layer)()


class MLP(Sequential):
    """A fully-connected network built from a list of hidden sizes."""

    def __init__(
        self,
        in_features: int,
        hidden_sizes: Sequence[int],
        out_features: int,
        hidden_activation: str = "relu",
        output_activation: str = "linear",
        rng: np.random.Generator | None = None,
        output_init_scale: float = 3e-3,
    ) -> None:
        rng = rng if rng is not None else np.random.default_rng()
        if hidden_activation not in _ACTIVATIONS:
            raise ValueError(f"unknown hidden activation {hidden_activation!r}")
        if output_activation not in _ACTIVATIONS:
            raise ValueError(f"unknown output activation {output_activation!r}")

        layers: List[Layer] = []
        prev = in_features
        weight_init = "he" if hidden_activation == "relu" else "glorot"
        for size in hidden_sizes:
            layers.append(Dense(prev, size, rng=rng, weight_init=weight_init))
            layers.append(_ACTIVATIONS[hidden_activation]())
            prev = size
        layers.append(Dense(prev, out_features, rng=rng, weight_init="uniform", init_scale=output_init_scale))
        layers.append(_ACTIVATIONS[output_activation]())
        super().__init__(layers)

        self.in_features = in_features
        self.out_features = out_features
        self.hidden_sizes = tuple(hidden_sizes)
        self.hidden_activation = hidden_activation
        self.output_activation = output_activation

        initial = self.parameters()
        self._shapes = [param.shape for param in initial]
        size = sum(_padded(param.size) for param in initial)
        self._bind(np.zeros(size), np.zeros(size))
        for view, value in zip(self.parameters(), initial):
            view[...] = value

    def _bind(self, param_buffer: np.ndarray, grad_buffer: np.ndarray) -> None:
        """Adopt the two flat buffers and point every Dense layer's weight,
        bias and gradients at views of them."""
        self.param_buffer = param_buffer
        self.grad_buffer = grad_buffer
        views = []
        offset = 0
        for shape in self._shapes:
            size = math.prod(shape)
            views.append((param_buffer[offset:offset + size].reshape(shape),
                          grad_buffer[offset:offset + size].reshape(shape)))
            offset += _padded(size)
        views = iter(views)
        for layer in self.layers:
            if isinstance(layer, Dense):
                layer.weight, layer.grad_weight = next(views)
                layer.bias, layer.grad_bias = next(views)

    def __setstate__(self, state: dict) -> None:
        # Pickling and deepcopy store every view as an array of its own; point
        # the layers back into the (restored) buffers.
        self.__dict__.update(state)
        self._bind(self.param_buffer, self.grad_buffer)

    def zero_grad(self) -> None:
        self.grad_buffer.fill(0.0)

    # ------------------------------------------------------------------ #
    # Parameter (de)serialization — used for target-network updates.
    # ------------------------------------------------------------------ #
    def get_weights(self) -> List[np.ndarray]:
        return [p.copy() for p in self.parameters()]

    def set_weights(self, weights: Sequence[np.ndarray]) -> None:
        params = self.parameters()
        if len(weights) != len(params):
            raise ValueError(f"expected {len(params)} arrays, got {len(weights)}")
        for param, new in zip(params, weights):
            if param.shape != np.asarray(new).shape:
                raise ValueError("weight shape mismatch")
            param[...] = new

    def soft_update_from(self, source: "MLP", tau: float) -> None:
        """Polyak averaging ``θ ← τ θ_src + (1−τ) θ`` (target network update)."""
        if not 0.0 <= tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        if self._shapes != source._shapes:
            raise ValueError("soft update between networks of different architectures")
        np.add(tau * source.param_buffer, (1.0 - tau) * self.param_buffer, out=self.param_buffer)

    def copy_from(self, source: "MLP") -> None:
        self.soft_update_from(source, tau=1.0)

    def clone(self) -> "MLP":
        """A structural copy with identical weights (independent storage, no RNG draw)."""
        other = object.__new__(type(self))
        other.__dict__.update(self.__dict__)
        other.layers = [_blank_like(layer) for layer in self.layers]
        other._bind(self.param_buffer.copy(), np.zeros_like(self.grad_buffer))
        return other


def make_actor(
    state_dim: int,
    action_dim: int = 1,
    hidden_sizes: Sequence[int] = (64, 32),
    rng: np.random.Generator | None = None,
) -> MLP:
    """The Orca/Canopy actor: ReLU hidden layers, tanh output in [-1, 1]."""
    return MLP(
        state_dim,
        hidden_sizes,
        action_dim,
        hidden_activation="relu",
        output_activation="tanh",
        rng=rng,
    )


def make_critic(
    state_dim: int,
    action_dim: int = 1,
    hidden_sizes: Sequence[int] = (64, 32),
    rng: np.random.Generator | None = None,
) -> MLP:
    """A Q-network taking the concatenated (state, action) and returning a scalar."""
    return MLP(
        state_dim + action_dim,
        hidden_sizes,
        1,
        hidden_activation="relu",
        output_activation="linear",
        rng=rng,
    )
