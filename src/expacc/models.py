"""Differentiable classifiers mapping feature batches to pre-activations.

Two model families: plain logistic regression and a ReLU feedforward network
with dropout on the input and on every hidden layer.  Both expose the same
surface: `params()` (flat list of arrays, optimizer order), `forward`
returning pre-activations plus a backprop trace, and `backward` turning a
pre-activation gradient into parameter gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Rng

__all__ = [
    "ForwardTrace",
    "LogisticRegression",
    "Mlp",
    "build_model",
    "xavier_init",
]


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


class LogisticRegression:
    """Linear map to class pre-activations: a = x W + b."""

    def __init__(self, rng: Rng, n_features: int, n_classes: int):
        self.n_classes = n_classes
        self.W = xavier_init(rng, n_features, n_classes)
        self.b = np.zeros(n_classes)

    def params(self):
        return [self.W, self.b]

    def forward(self, x: np.ndarray, mode: str = "eval", rng: Rng | None = None):
        _check_mode(mode)
        x = np.asarray(x, dtype=np.float64)
        preact = x @ self.W + self.b
        return preact, ForwardTrace([x], [], [None])

    def backward(self, trace: ForwardTrace, grad_preact: np.ndarray):
        x = trace.layer_inputs[0]
        if grad_preact.shape != (x.shape[0], self.n_classes):
            raise ValueError(
                f"grad_preact shape {grad_preact.shape} does not match trace batch"
            )
        return [x.T @ grad_preact, grad_preact.sum(axis=0)]


class Mlp:
    """ReLU feedforward classifier with inverted dropout.

    Hidden layout defaults to (300, 200, 100).  In train mode each input and
    hidden unit is dropped with its layer's probability and survivors are
    scaled by 1/(1-p), so eval mode is a plain forward pass.
    """

    def __init__(
        self,
        rng: Rng,
        n_features: int,
        n_classes: int,
        hidden=(300, 200, 100),
        input_dropout: float = 0.0,
        hidden_dropout: float = 0.0,
    ):
        if not 0.0 <= input_dropout < 1.0 or not 0.0 <= hidden_dropout < 1.0:
            raise ValueError("dropout probabilities must lie in [0, 1)")
        if not hidden:
            raise ValueError("mlp needs at least one hidden layer")
        self.n_features = n_features
        self.n_classes = n_classes
        self.hidden = tuple(int(h) for h in hidden)
        self.input_dropout = input_dropout
        self.hidden_dropout = hidden_dropout
        sizes = [n_features, *self.hidden, n_classes]
        self.weights = [
            xavier_init(rng, sizes[i], sizes[i + 1]) for i in range(len(sizes) - 1)
        ]
        self.biases = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]

    def params(self):
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    @staticmethod
    def _drop_mult(shape, p: float, mode: str, rng: Rng | None):
        if mode == "eval" or p == 0.0:
            return None
        if rng is None:
            raise ValueError("train-mode dropout needs an Rng")
        keep = 1.0 - p
        return (rng.uniform(0.0, 1.0, size=shape) < keep) / keep

    def forward(self, x: np.ndarray, mode: str = "eval", rng: Rng | None = None):
        _check_mode(mode)
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(f"expected (N, {self.n_features}) input, got {x.shape}")
        layer_inputs, relu_masks, drop_mults = [], [], []

        mult = self._drop_mult(x.shape, self.input_dropout, mode, rng)
        drop_mults.append(mult)
        h = x if mult is None else x * mult

        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            layer_inputs.append(h)
            z = h @ w + b
            mask = z > 0
            relu_masks.append(mask)
            act = z * mask
            mult = self._drop_mult(act.shape, self.hidden_dropout, mode, rng)
            drop_mults.append(mult)
            h = act if mult is None else act * mult

        layer_inputs.append(h)
        preact = h @ self.weights[-1] + self.biases[-1]
        return preact, ForwardTrace(layer_inputs, relu_masks, drop_mults)

    def backward(self, trace: ForwardTrace, grad_preact: np.ndarray):
        if len(trace.layer_inputs) != len(self.weights):
            raise ValueError("trace does not match this model's depth")
        if grad_preact.shape != (trace.layer_inputs[0].shape[0], self.n_classes):
            raise ValueError(
                f"grad_preact shape {grad_preact.shape} does not match trace batch"
            )
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.biases)
        g = grad_preact
        for i in range(len(self.weights) - 1, -1, -1):
            grads_w[i] = trace.layer_inputs[i].T @ g
            grads_b[i] = g.sum(axis=0)
            if i > 0:
                g = g @ self.weights[i].T
                if trace.drop_mults[i] is not None:
                    g = g * trace.drop_mults[i]
                g = g * trace.relu_masks[i - 1]
        out = []
        for w, b in zip(grads_w, grads_b):
            out.extend((w, b))
        return out


def _check_mode(mode: str) -> None:
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")


def build_model(kind: str, rng: Rng, n_features: int, n_classes: int, **kwargs):
    if kind == "logreg":
        if any(kwargs.values()):
            raise ValueError("logreg takes no hidden sizes or dropout")
        return LogisticRegression(rng, n_features, n_classes)
    if kind == "mlp":
        return Mlp(rng, n_features, n_classes, **kwargs)
    raise ValueError(f"unknown model kind {kind!r}")
