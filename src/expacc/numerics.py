"""Stable activations and seeded randomness.

All numeric data lives in row-major (C-order) float64 numpy arrays; batches
put one instance per row.  `Rng` is numpy's PCG64 `Generator` plus `child`,
the rule that derives every stream of a run from its one seed.
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


class Rng(np.random.Generator):
    """numpy's PCG64 `Generator`, built from a seed it keeps.

    A given seed produces the same draw sequence on every platform (for a
    fixed numpy version).  Draw with numpy's own methods (`uniform`,
    `permutation`, `integers`, `normal`, ...); derive independent streams
    with `child` instead of sharing one.
    """

    def __init__(self, seed: int):
        super().__init__(np.random.PCG64(seed))
        self.seed = int(seed)

    def child(self, *keys: int) -> "Rng":
        """Derive an independent generator keyed by (seed, *keys)."""
        derived = np.random.SeedSequence([self.seed, *map(int, keys)])
        return Rng(int(derived.generate_state(1, np.uint64)[0]))
