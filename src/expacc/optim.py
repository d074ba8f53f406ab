"""Adam updates and the per-epoch minibatch schedule."""

from __future__ import annotations

import numpy as np

from .numerics import Rng

__all__ = ["Adam", "minibatches"]


# Moment decay rates and denominator guard of the reference formulation
# (Kingma & Ba, arXiv:1412.6980); only the learning rate is
# experiment-specific.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Adam with bias correction.  One instance owns one training run's
    moment state.

    `lr` is a number or one rate per grid point of stacked parameters, each
    broadcast over its point's slice of the leading axis (`TrainConfig`
    checks the rates).  A step writes the
    moments, two scratch buffers per parameter and the parameter in place,
    in the operation order of `lr * (m / bc1) / (sqrt(v / bc2) + eps)`, so
    steps allocate no arrays.
    """

    def __init__(self, lr):
        self.lr = np.asarray(lr, dtype=np.float64)
        self.t = 0
        self.m = None
        self.v = None
        self._scratch = None

    def take(self, points) -> None:
        """Keep only the rates and moments of grid points `points` (an index
        or mask on the leading axis), in that order, with scratch buffers of
        the new shape."""
        self.lr = self.lr[points]
        if self.m is not None:
            self.m = [m[points] for m in self.m]
            self.v = [v[points] for v in self.v]
            self._scratch = [(np.empty_like(m), np.empty_like(m)) for m in self.m]

    def step(self, params, grads) -> None:
        """Update `params` in place from matching `grads`."""
        if len(params) != len(grads):
            raise ValueError(f"{len(params)} params but {len(grads)} grads")
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
            self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self.t += 1
        bc1 = 1.0 - _BETA1**self.t
        bc2 = 1.0 - _BETA2**self.t
        for p, g, m, v, (a, b) in zip(params, grads, self.m, self.v, self._scratch):
            if p.shape != g.shape:
                raise ValueError(f"param shape {p.shape} vs grad shape {g.shape}")
            lr = self.lr.reshape(self.lr.shape + (1,) * (p.ndim - self.lr.ndim))
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) (g g)
            np.multiply(g, 1.0 - _BETA1, out=a)
            m *= _BETA1
            m += a
            np.multiply(g, g, out=a)
            a *= 1.0 - _BETA2
            v *= _BETA2
            v += a
            # p -= lr (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(m, bc1, out=a)
            np.multiply(lr, a, out=a)
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += _EPS
            a /= b
            p -= a


def minibatches(rng: Rng, n: int, batch_size: int):
    """Freshly shuffled index batches covering 0..n-1; last may be short."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    perm = rng.permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]
