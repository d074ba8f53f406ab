"""Differentiable classifiers mapping feature batches to pre-activations.

One network class, `Mlp`: a ReLU feedforward network with inverted dropout
on the input and on every hidden layer.  Logistic regression is that network
with no hidden layers (`LogisticRegression`).  The surface: `theta` (every
parameter in the one block `Adam` steps), `split` (a block's per-layer
views, in the order `theta`'s layout defines: W0, b0, W1, b1, ...),
`forward` returning pre-activations plus a backprop trace, and `backward`
turning a pre-activation gradient into a gradient block of `theta`'s layout.
`params()`, `split`'s views of `theta`, stays for `perfbench/tracer.py`'s
`_weights`, which calls it.

Given a sequence of dropout rates, the network is a stack of networks with
a leading grid axis on every parameter, which one forward and one backward
pass train together; `theta` holds one row per point.  Each point has its
own random streams: its own initialization draw and its own dropout draw
per layer per step, so its slice holds the bits of a network of its own.
`take` keeps some points of a stack.
A layer of fewer than `numerics.SHORT_AXIS` units (a two-class output) adds
its bias column by column (`numerics.by_column`) and sums its bias gradient
in one accumulate (`numerics.sum_rows`), with numpy's bits.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .numerics import Rng, by_column, sum_rows

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
    unit is dropped with probability `dropout` (in [0, 1): `TrainConfig`
    checks it) and survivors are scaled by 1/(1-p); without one it is a
    plain forward pass.

    A sequence of dropout rates makes a stack of networks, one per grid
    point: every parameter gets a leading axis of that length.  `rng` is
    one `Rng` per point, or one for a single network: each point starts
    from its own initialization draw, and `forward`, given the points'
    dropout `Rng`s, masks each point with its own draw.  `forward` and
    `backward` work for the stack and the single network alike; each
    point's slice gets the bits a single network from its streams would.

    The parameters live in one block, `theta`: one row per point (a vector
    for a single network) holding W0, b0, W1, b1, ... flattened in that
    order.  `weights`, `biases` and `params()` are views into it, so an
    update of `theta` in place updates them; assigning `theta` rebuilds
    them on the new block, and so do `take` and a deep copy.
    """

    def __init__(
        self,
        rng,
        n_features: int,
        n_classes: int,
        hidden=DEFAULT_HIDDEN,
        dropout=0.0,
    ):
        self.dropout = np.asarray(dropout, dtype=np.float64)
        grid = self.dropout.shape
        rngs = self._per_point(rng)
        layers = list(zip([n_features, *hidden], [*hidden, n_classes]))
        shapes = [shape for m, n in layers for shape in ((m, n), (n,))]
        ends = np.cumsum([math.prod(shape) for shape in shapes]).tolist()
        # each parameter array's columns of `theta`, and its shape
        self._layout = list(zip([0, *ends], ends, shapes))
        self.theta = np.zeros(grid + (ends[-1],))
        for w, (m, n) in zip(self.weights, layers):
            w[...] = np.stack([xavier_init(r, m, n) for r in rngs]).reshape(w.shape)

    @property
    def theta(self) -> np.ndarray:
        """Every parameter: W0, b0, W1, b1, ... flattened along the last axis."""
        return self._theta

    @theta.setter
    def theta(self, block: np.ndarray) -> None:
        self._theta = block
        views = self.split(block)
        self.weights, self.biases = views[0::2], views[1::2]

    def split(self, block: np.ndarray) -> list:
        """Views of a block of `theta`'s layout, one per parameter array, in
        the layout's order: W0, b0, W1, b1, ..."""
        lead = block.shape[:-1]
        return [block[..., lo:hi].reshape(*lead, *shape) for lo, hi, shape in self._layout]

    def __deepcopy__(self, memo):
        """A copy with its own block and its views rebuilt on it: a deep copy
        of the views themselves would not share the copied block."""
        twin = copy.copy(self)
        twin.dropout = self.dropout.copy()
        twin.theta = self.theta.copy()
        return twin

    def _per_point(self, rng) -> list:
        """`rng` as one `Rng` per point of the stack."""
        rngs = [rng] if isinstance(rng, Rng) else list(rng)
        if len(rngs) != self.dropout.size:
            raise ValueError(f"{len(rngs)} random streams for {self.dropout.size} points")
        return rngs

    def params(self):
        """`split`'s views of `theta`: W0, b0, W1, b1, ..."""
        return [p for layer in zip(self.weights, self.biases) for p in layer]

    def take(self, points) -> None:
        """Keep only the grid points `points` (an index or mask on the leading
        axis) of a stack, in that order.  A slice keeps a view of `theta`."""
        self.theta = self.theta[points]
        self.dropout = self.dropout[points]

    @staticmethod
    def _drop_mult(shape, p, rngs):
        """Inverted-dropout multipliers for an (n, width) layer input: one
        uniform draw in [0, 1) per point's `Rng` (`random`, the bits of
        `uniform(0.0, 1.0)` at less cost), all drawn into one array that
        becomes the multipliers in place: `1 / keep` where a draw is below
        its point's keep rate `1 - p` (one division per point), else 0."""
        keep = 1.0 - np.asarray(p)[..., None, None]
        u = np.empty(np.shape(p) + shape)
        for r, draws in zip(rngs, u.reshape(-1, *shape)):
            r.random(shape, out=draws)
        np.less(u, keep, out=u)  # 1.0 where kept, 0.0 where dropped
        u *= 1.0 / keep
        return u

    def forward(self, x: np.ndarray, rng=None):
        """Pre-activations of `x` ((..., n, features): one batch for every
        point, or one per point) and the trace `backward` needs; `rng` (one
        `Rng` per point, or one for a single network) turns dropout on.
        A hidden layer applies ReLU and dropout in place, into the fresh
        pre-activations of the layer before; `x` is never written."""
        h = np.asarray(x)
        if h.dtype.kind in "biu":
            # raw codes (IDX pixels) are not features: `Dataset.features` scales them
            raise TypeError(f"forward needs float features, got {h.dtype} input")
        h = h.astype(np.float64, copy=False)
        # Masks are drawn only when some grid point drops units at all.
        drop = rng is not None and self.dropout.any()
        rngs = self._per_point(rng) if drop else None
        layer_inputs, relu_masks, drop_mults = [], [], []
        # Each layer: ReLU on the previous layer's output (not on x), dropout, linear map.
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if i > 0:
                mask = h > 0
                relu_masks.append(mask)
                h *= mask
            mult = self._drop_mult(h.shape[-2:], self.dropout, rngs) if drop else None
            if mult is not None:
                h = np.multiply(h, mult, out=h if i > 0 else None)
            drop_mults.append(mult)
            layer_inputs.append(h)
            h = by_column(np.add, h @ w, b[..., None, :])
        return h, ForwardTrace(layer_inputs, relu_masks, drop_mults)

    def backward(self, trace: ForwardTrace, grad_preact: np.ndarray) -> np.ndarray:
        """The gradient of every parameter, in one block of `theta`'s
        layout (`split` gives its per-layer views)."""
        block = np.empty_like(self.theta)
        grads = self.split(block)  # params() order: W0, b0, W1, ...
        g = grad_preact
        for i in range(len(self.weights) - 1, -1, -1):
            np.matmul(np.swapaxes(trace.layer_inputs[i], -1, -2), g, out=grads[2 * i])
            grads[2 * i + 1][...] = sum_rows(g)
            if i > 0:
                g = g @ np.swapaxes(self.weights[i], -1, -2)  # fresh: scaled in place
                if trace.drop_mults[i] is not None:
                    g *= trace.drop_mults[i]
                g *= trace.relu_masks[i - 1]
        return block


class LogisticRegression(Mlp):
    """Linear map to class pre-activations, a = x W + b: no hidden layers.
    `grid` is the shape of the stack's leading axis, () for one network."""

    def __init__(self, rng, n_features: int, n_classes: int, grid=()):
        super().__init__(rng, n_features, n_classes, (), np.zeros(grid))


def build_model(
    kind: str,
    rng,
    n_features: int,
    n_classes: int,
    hidden=DEFAULT_HIDDEN,
    dropout=0.0,
):
    """The network of a model kind; `logreg` ignores `hidden`.  A sequence of
    dropout rates builds a stack of networks, one per grid point, each from
    its own `Rng` in `rng`."""
    if kind == "logreg":
        if np.any(dropout):
            raise ValueError("dropout is only meaningful for mlp, not logreg")
        return LogisticRegression(rng, n_features, n_classes, np.shape(dropout))
    if kind == "mlp":
        return Mlp(rng, n_features, n_classes, hidden, dropout)
    raise ValueError(f"unknown model kind {kind!r}")
