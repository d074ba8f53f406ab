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
    """Adam with bias correction over one parameter block.  One instance
    owns one training run's moment state.

    The block is a stack's `(points, P)` parameters, one row per grid point,
    with `lr` one rate per point (`TrainConfig` checks the rates), or a
    single network's `(P,)` parameters with one number as `lr`.  A step
    writes the moments, two scratch buffers of the block's shape and the
    block in place, in the operation order of
    `lr * (m / bc1) / (sqrt(v / bc2) + eps)`, so steps allocate no arrays.
    """

    def __init__(self, lr):
        self.lr = np.asarray(lr, dtype=np.float64)[..., None]  # broadcast over a row
        self.t = 0
        self.m = None
        self.v = None
        self._scratch = None

    def take(self, points) -> None:
        """Keep only the rates and moments of grid points `points` (an index
        or mask on the block's rows), in that order, with scratch buffers of
        the new shape."""
        self.lr = self.lr[points]
        if self.m is not None:
            self.m, self.v = self.m[points], self.v[points]
            self._scratch = np.empty_like(self.m), np.empty_like(self.m)

    def step(self, theta, grad) -> None:
        """Update the block `theta` in place from `grad`, of its shape."""
        if theta.shape != grad.shape:
            raise ValueError(f"param shape {theta.shape} vs grad shape {grad.shape}")
        if self.m is None:
            self.m, self.v = np.zeros_like(theta), np.zeros_like(theta)
            self._scratch = np.empty_like(theta), np.empty_like(theta)
        self.t += 1
        bc1 = 1.0 - _BETA1**self.t
        bc2 = 1.0 - _BETA2**self.t
        m, v, (a, b) = self.m, self.v, self._scratch
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) (g g)
        np.multiply(grad, 1.0 - _BETA1, out=a)
        m *= _BETA1
        m += a
        np.multiply(grad, grad, out=a)
        a *= 1.0 - _BETA2
        v *= _BETA2
        v += a
        # theta -= lr (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(m, bc1, out=a)
        np.multiply(self.lr, a, out=a)
        np.divide(v, bc2, out=b)
        np.sqrt(b, out=b)
        b += _EPS
        a /= b
        theta -= a


def minibatches(rng: Rng, n: int, batch_size: int):
    """Freshly shuffled index batches covering 0..n-1; last may be short."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    perm = rng.permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]
