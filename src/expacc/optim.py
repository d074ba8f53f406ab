"""Adam updates and the per-epoch minibatch schedule."""

from __future__ import annotations

import numpy as np

from .numerics import Rng

__all__ = ["Adam", "minibatches"]


# Moment decay rates and denominator guard of the reference formulation
# (Kingma & Ba, arXiv:1412.6980); only the learning rate is
# experiment-specific.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


# Elements of one Adam piece: 512 KiB per float64 array, 3 MiB for a
# piece's six.  The size is the fastest of a sweep, not one derived from a
# cache size: whole `mlp_mnist_dropout` bench runs on a 2-vCPU x86 host with
# 2 MiB of L2 per core, pieced against unpieced Adam (three pairs each,
# CHANGES.md), read wall/CPU ratios of 1.18/1.08 at 2^13 elements,
# 1.02/0.97 at 2^14, 0.95/0.93 at 2^15, 0.92/0.91 at 2^16 and 0.94/0.94 at
# 2^17: smaller pieces pay more per-call overhead than they save.
_PIECE = 2**16


def _update(theta, grad, m, v, lr, a, b, bc1, bc2) -> None:
    """One Adam update of `theta` in place, with scratch `a` and `b` of its
    shape, in the operation order of `lr * (m / bc1) / (sqrt(v / bc2) + eps)`."""
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
    np.multiply(lr, a, out=a)
    np.divide(v, bc2, out=b)
    np.sqrt(b, out=b)
    b += _EPS
    a /= b
    theta -= a


class Adam:
    """Adam with bias correction over one parameter block.  One instance
    owns one training run's moment state.

    The block is a stack's `(points, P)` parameters, one row per grid point,
    with `lr` one rate per point (`TrainConfig` checks the rates), or a
    single network's `(P,)` parameters with one number as `lr`.  A step
    writes the moments, a scratch pair and the block in place, in 14 numpy
    calls, so steps allocate no arrays.  The block steps in pieces: column
    ranges of at most `_PIECE` values across all its rows, with the same
    calls on each piece and a scratch pair of one piece, rows x `_PIECE`
    values when the rows are longer than `_PIECE` (one row under
    `replicate`, where such a point trains alone).  Each element sees the
    same operations in any piece, so the pieces change no bit.
    """

    def __init__(self, lr):
        self.lr = np.asarray(lr, dtype=np.float64)[..., None]  # broadcast over a row
        self.t = 0
        self.m = None
        self.v = None
        self._scratch = None  # two flat buffers of the largest piece's size
        self._pieces = None  # per piece: its index and its (m, v, lr, a, b) views

    def take(self, points) -> None:
        """Keep only the rates and moments of grid points `points` (an index
        or mask on the block's rows), in that order."""
        self.lr = self.lr[points]
        if self.m is not None:
            self.m, self.v = self.m[points], self.v[points]
        self._pieces = None

    def _cut(self) -> list:
        """The pieces of the moments' block, each as its index into the
        block and its views of the state."""
        indexes = [(..., slice(lo, lo + _PIECE)) for lo in range(0, self.m.shape[-1], _PIECE)]
        n = self.m[indexes[0]].size
        if self._scratch is None or self._scratch[0].size < n:
            self._scratch = np.empty(n), np.empty(n)
        pieces = []
        for index in indexes:
            m, v = self.m[index], self.v[index]
            a, b = (s[: m.size].reshape(m.shape) for s in self._scratch)
            pieces.append((index, (m, v, self.lr, a, b)))
        return pieces

    def step(self, theta, grad) -> None:
        """Update the block `theta` in place from `grad`, of its shape."""
        if theta.shape != grad.shape:
            raise ValueError(f"param shape {theta.shape} vs grad shape {grad.shape}")
        if self.m is None:
            self.m, self.v = np.zeros_like(theta), np.zeros_like(theta)
        if self._pieces is None:
            self._pieces = self._cut()
        self.t += 1
        bc1 = 1.0 - _BETA1**self.t
        bc2 = 1.0 - _BETA2**self.t
        for index, state in self._pieces:
            _update(theta[index], grad[index], *state, bc1, bc2)


def minibatches(rng: Rng, n: int, batch_size: int):
    """Freshly shuffled index batches covering 0..n-1; last may be short."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    perm = rng.permutation(n)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]
