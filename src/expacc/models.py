"""Differentiable classifiers mapping feature batches to pre-activations.

One network class, `Mlp`: a ReLU feedforward network with inverted dropout
on the input and on every hidden layer.  Logistic regression is that network
with no hidden layers (`LogisticRegression`).  The surface: `params()` (flat
list of arrays, optimizer order), `forward` returning pre-activations plus a
backprop trace, and `backward` turning a pre-activation gradient into
parameter gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Rng

__all__ = [
    "DEFAULT_HIDDEN",
    "ForwardTrace",
    "LogisticRegression",
    "Mlp",
    "build_model",
    "xavier_init",
]


# Hidden-layer sizes of an `mlp` when none are given.
DEFAULT_HIDDEN = (300, 200, 100)


def xavier_init(rng: Rng, fan_in: int, fan_out: int) -> np.ndarray:
    """Weight matrix with entries uniform in +-sqrt(6 / (fan_in + fan_out))."""
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fans must be >= 1, got ({fan_in}, {fan_out})")
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


@dataclass
class ForwardTrace:
    """Cached activations and masks from one forward pass.

    `layer_inputs[i]` is what linear layer i actually consumed (dropout
    already applied); `drop_mults[i]` is the inverted-dropout multiplier
    applied before layer i (None when inactive); `relu_masks[i]` is the
    boolean mask of hidden layer i.
    """

    layer_inputs: list
    relu_masks: list
    drop_mults: list


class Mlp:
    """ReLU feedforward classifier with inverted dropout.

    Hidden layout defaults to `DEFAULT_HIDDEN`; `hidden=()` is the linear map
    a = x W + b.  When `forward` is given an `Rng`, each input and hidden
    unit is dropped with probability `dropout` and survivors are scaled by
    1/(1-p); without one it is a plain forward pass.
    """

    def __init__(
        self,
        rng: Rng,
        n_features: int,
        n_classes: int,
        hidden=DEFAULT_HIDDEN,
        dropout: float = 0.0,
    ):
        if not 0.0 <= dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {dropout}")
        self.dropout = dropout
        sizes = [n_features, *hidden, n_classes]
        self.weights = [xavier_init(rng, m, n) for m, n in zip(sizes, sizes[1:])]
        self.biases = [np.zeros(n) for n in sizes[1:]]

    def params(self):
        return [p for layer in zip(self.weights, self.biases) for p in layer]

    @staticmethod
    def _drop_mult(shape, p: float, rng: Rng | None):
        if rng is None or p == 0.0:
            return None
        keep = 1.0 - p
        return (rng.uniform(0.0, 1.0, size=shape) < keep) / keep

    def forward(self, x: np.ndarray, rng: Rng | None = None):
        h = np.asarray(x, dtype=np.float64)
        layer_inputs, relu_masks, drop_mults = [], [], []
        # Each layer: ReLU on the previous layer's output (not on x), dropout, linear map.
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if i > 0:
                mask = h > 0
                relu_masks.append(mask)
                h = h * mask
            mult = self._drop_mult(h.shape, self.dropout, rng)
            drop_mults.append(mult)
            if mult is not None:
                h = h * mult
            layer_inputs.append(h)
            h = h @ w + b
        return h, ForwardTrace(layer_inputs, relu_masks, drop_mults)

    def backward(self, trace: ForwardTrace, grad_preact: np.ndarray):
        grads = [None] * (2 * len(self.weights))  # params() order: W0, b0, W1, ...
        g = grad_preact
        for i in range(len(self.weights) - 1, -1, -1):
            grads[2 * i] = trace.layer_inputs[i].T @ g
            grads[2 * i + 1] = g.sum(axis=0)
            if i > 0:
                g = g @ self.weights[i].T
                if trace.drop_mults[i] is not None:
                    g = g * trace.drop_mults[i]
                g = g * trace.relu_masks[i - 1]
        return grads


class LogisticRegression(Mlp):
    """Linear map to class pre-activations, a = x W + b: no hidden layers."""

    def __init__(self, rng: Rng, n_features: int, n_classes: int):
        super().__init__(rng, n_features, n_classes, hidden=())


def build_model(
    kind: str,
    rng: Rng,
    n_features: int,
    n_classes: int,
    hidden=DEFAULT_HIDDEN,
    dropout: float = 0.0,
):
    """The network of a model kind; `logreg` ignores `hidden`."""
    if kind == "logreg":
        if dropout:
            raise ValueError("dropout is only meaningful for mlp, not logreg")
        return LogisticRegression(rng, n_features, n_classes)
    if kind == "mlp":
        return Mlp(rng, n_features, n_classes, hidden, dropout)
    raise ValueError(f"unknown model kind {kind!r}")
