"""Stable activations and seeded randomness.

All numeric data lives in row-major (C-order) float64 numpy arrays; batches
put one instance per row.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Rng",
    "sigmoid",
    "softmax_rows",
]


def softmax_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by each row's max so exp never overflows."""
    a = np.asarray(a, dtype=np.float64)
    shifted = a - a.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(a):
    """Numerically stable logistic function, elementwise.

    Computed branch-wise (exp of a non-positive argument on both branches)
    so large |a| saturates instead of overflowing.
    """
    a = np.asarray(a, dtype=np.float64)
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    if out.ndim == 0:
        return float(out)
    return out


class Rng:
    """Deterministic pseudo-random source.

    Wraps numpy's PCG64 bit generator: a given seed produces the same draw
    sequence on every platform (for a fixed numpy version).  Instances are
    cheap; derive independent streams with `child` instead of sharing one.
    """

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, *keys: int) -> "Rng":
        """Derive an independent generator keyed by (seed, *keys)."""
        derived = np.random.SeedSequence([self.seed, *map(int, keys)])
        return Rng(int(derived.generate_state(1, np.uint64)[0]))

    def uniform(self, lo: float, hi: float, size=None):
        if not lo < hi:
            raise ValueError(f"empty uniform range [{lo}, {hi})")
        return self._gen.uniform(lo, hi, size=size)

    def permutation(self, n: int) -> np.ndarray:
        """A shuffle of 0..n-1."""
        if n < 0:
            raise ValueError(f"cannot permute {n} items")
        return self._gen.permutation(n)

    def categorical(self, k: int, size=None):
        """Uniform class index draw(s) from {0, .., k-1}."""
        if k < 1:
            raise ValueError(f"categorical needs k >= 1, got {k}")
        return self._gen.integers(0, k, size=size)

    def normal(self, size=None):
        return self._gen.standard_normal(size=size)
