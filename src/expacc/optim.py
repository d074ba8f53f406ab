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
    moment state."""

    def __init__(self, lr: float):
        if lr < 0:
            raise ValueError(f"lr must be >= 0, got {lr}")
        self.lr = lr
        self.t = 0
        self.m = None
        self.v = None

    def step(self, params, grads) -> None:
        """Update `params` in place from matching `grads`."""
        if len(params) != len(grads):
            raise ValueError(f"{len(params)} params but {len(grads)} grads")
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        self.t += 1
        bc1 = 1.0 - _BETA1**self.t
        bc2 = 1.0 - _BETA2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            if p.shape != g.shape:
                raise ValueError(f"param shape {p.shape} vs grad shape {g.shape}")
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * (g * g)
            p -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)


def minibatches(rng: Rng, n: int, batch_size: int):
    """Freshly shuffled index batches covering 0..n-1; last may be short."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    perm = rng.permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]
