"""Stable activations, class-axis loops and seeded randomness.

All numeric data lives in row-major (C-order) float64 numpy arrays; batches
put one instance per row.  `Rng` is numpy's PCG64 `Generator` plus `child`,
the rule that derives every stream of a run from its one seed.

`reduce_last`, `argmax_last` and `by_column` work along the last (class)
axis.  numpy runs its inner loop once per row there, in a reduction over
that axis and in an elementwise op that broadcasts along it, so on a short
axis (two classes) its fixed cost per row is most of the time.  Below
`SHORT_AXIS` entries these loop over the columns instead, in the order numpy
adds them, and return numpy's bits.  `softmax_rows`, the losses and the
models' bias add use them.  `sum_rows`, the models' bias gradient, sums
over the rows of a short class axis in one accumulate, again with numpy's
bits.

Importing this module ends the worker threads of numpy's bundled OpenBLAS
(`_end_blas_workers`), which otherwise spin idle for about 0.13 s of CPU
after numpy loads.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy as np

__all__ = [
    "SHORT_AXIS",
    "Rng",
    "argmax_last",
    "by_column",
    "reduce_last",
    "sigmoid",
    "softmax_rows",
    "sum_rows",
]

# numpy's pairwise summation adds fewer than 8 values strictly in order (a
# plain loop below 8, eight interleaved partial sums from 8 on), so a column
# loop over a shorter axis gets numpy's exact bits.  This mirrors numpy; it
# is not a tuning setting.
SHORT_AXIS = 8

# numpy's bundled OpenBLAS thread-count functions, by build
_OPENBLAS_THREADS = (
    "scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_", "openblas_{}_num_threads"
)


@functools.cache
def _openblas_threads():
    """The (get, set, shutdown) functions of numpy's bundled OpenBLAS: its
    thread-count getter and setter, and `blas_thread_shutdown_` (None where
    the build does not export it); None where no setter is found.  Looked
    up once."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    files = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
    for path in (os.path.join(libs, f) for f in files if "openblas" in f):
        lib = ctypes.CDLL(path)
        for name in _OPENBLAS_THREADS:
            get, set_ = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
            if get is not None and set_ is not None:
                get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
                shutdown = getattr(lib, "blas_thread_shutdown_", None)
                if shutdown is not None:
                    shutdown.restype, shutdown.argtypes = ctypes.c_int, []
                return get, set_, shutdown
    return None


def _end_blas_workers() -> None:
    """End the worker threads of numpy's OpenBLAS; nothing where it exports
    no `blas_thread_shutdown_`.

    A worker that has just started, or just finished a job, spin-waits for
    the next one for about 0.13 s of CPU before it sleeps.  OpenBLAS starts
    its workers when it loads and on every `openblas_set_num_threads` call
    after a shutdown, and its next call that needs them starts them again.
    The thread count stays, so no result changes.  Call it only while no
    other thread runs BLAS.
    """
    found = _openblas_threads()
    if found is not None and found[2] is not None:
        found[2]()


_end_blas_workers()


def reduce_last(ufunc: np.ufunc, a: np.ndarray):
    """`ufunc.reduce(a, axis=-1)`, one column at a time on a short last axis.

    Like numpy, a ufunc with an identity starts from it (so the sum of
    [-0.0] is 0.0 + -0.0 = 0.0) and one without starts from the first
    column.  A zero maximum takes its sign from `np.maximum`; numpy's own
    max reductions do not agree on that sign (their SIMD and scalar loops
    break a tie of 0.0 and -0.0 differently).
    """
    k = a.shape[-1]
    if not 0 < k < SHORT_AXIS:
        return ufunc.reduce(a, axis=-1)
    out = np.array(a[..., 0])
    if ufunc.identity is not None:
        ufunc(ufunc.identity, out, out=out)
    for j in range(1, k):
        ufunc(out, a[..., j], out=out)
    return out[()]


def argmax_last(a: np.ndarray):
    """`a.argmax(axis=-1)`, one column at a time on a short last axis: the
    first index of each row's maximum, or of its first NaN."""
    k = a.shape[-1]
    if not 0 < k < SHORT_AXIS:
        return a.argmax(axis=-1)
    best = np.array(a[..., 0])
    index = np.zeros(best.shape, dtype=np.intp)
    for j in range(1, k):
        col = a[..., j]
        # a larger value or a NaN takes the row, unless a NaN already holds it;
        # `maximum` keeps a value equal to the winner's (NaN once one won)
        np.putmask(index, ~(col <= best) & (best == best), j)
        np.maximum(best, col, out=best)
    return index[()]


def by_column(ufunc: np.ufunc, a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """`ufunc(a, b, out=out)` for a float `a` and a `b` that broadcasts to
    `a`'s shape with a last axis of 1 (one value per row) or of `a`'s length,
    one column at a time on a short last axis.  Elementwise, so every bit is
    numpy's."""
    k = a.shape[-1]
    if not 0 < k < SHORT_AXIS:
        return ufunc(a, b, out=out)
    if out is None:
        out = np.empty(a.shape, np.result_type(a, b))
    step = int(b.shape[-1] > 1)  # a last axis of 1 gives every column its one value
    for j in range(k):
        ufunc(a[..., j], b[..., j * step], out=out[..., j])
    return out


def sum_rows(g: np.ndarray):
    """`g.sum(axis=-2)`: the sum over the rows of each (n, k) matrix of `g`.

    numpy reduces a C-ordered `g` row after row from its identity, with its
    inner loop along the k columns, so for 2 <= k < `SHORT_AXIS` it pays its
    per-row cost n times.  There this is the last row of one
    `np.add.accumulate` along the rows plus 0.0 (the identity, so the sum
    of [-0.0] is 0.0), which adds in numpy's order and returns its bits.
    For k = 1 numpy sums the rows pairwise, and from `SHORT_AXIS` on its
    per-row cost is small, so there, and for no rows or another layout, it
    is numpy's own sum.
    """
    if g.shape[-2] < 1 or not 2 <= g.shape[-1] < SHORT_AXIS or not g.flags.c_contiguous:
        return g.sum(axis=-2)
    return 0.0 + np.add.accumulate(g, axis=-2)[..., -1, :]


def softmax_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise softmax, shifted by each row's max so exp never overflows."""
    a = np.asarray(a, dtype=np.float64)
    e = by_column(np.subtract, a, reduce_last(np.maximum, a)[..., None])
    np.exp(e, out=e)
    return by_column(np.divide, e, reduce_last(np.add, e)[..., None], out=e)


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
