"""Memory a replicated comparison takes beyond its pool.

Every split of a fold is row indices into the pool, so a fold adds no copy
of any split, whatever the pool's size.  An IDX pool holds its pixels as
one byte each, and only the rows a step or an evaluation reads become float
features.
"""

import os
import tracemalloc

import numpy as np
import pytest

import expacc.harness
from expacc.data import Dataset, load_mnist, make_folds
from expacc.harness import TrainConfig, replicate
from expacc.losses import LossSpec
from expacc.numerics import Rng
from helpers import write_idx_pair

CFGS = [TrainConfig(loss=LossSpec("neglog"), lr=1e-3, max_epochs=1)]


def mnist_shaped_pool(n=4000, d=784, k=10):
    rng = Rng(0)
    return Dataset(rng.uniform(0.0, 1.0, size=(n, d)), rng.integers(k, size=n), k, "pool")


def run(pool):
    plan = make_folds(Rng(1), pool.n, "kfold", k=10)
    return plan, replicate(
        "logreg", pool, plan, CFGS, master_seed=2, noise_p=0.05, max_folds=2
    )


def test_replicate_needs_less_than_half_a_pool_beyond_the_pool():
    pool = mnist_shaped_pool()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _, out = run(pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(o.ok for o in out)
    # a copy of one fold's train split alone is 0.9 of the pool
    assert peak - before < 0.5 * pool.x.nbytes


def test_replicate_trains_on_rows_of_the_pool(monkeypatch):
    pool = mnist_shaped_pool(n=400, d=20)
    train_run = expacc.harness.train_run
    seen = []

    def recording(model_kind, train, dev, test, cfg, hidden, points, folds):
        seen.append(train)
        return train_run(model_kind, train, dev, test, cfg, hidden, points, folds)

    monkeypatch.setattr(expacc.harness, "train_run", recording)
    plan, _ = run(pool)
    assert len(seen) == 1  # both folds train 360 rows: one stack
    for fold, train in enumerate(seen[0]):
        assert np.shares_memory(train.ds.x, pool.x)
        assert train.n == len(plan.folds[fold][0])


def test_idx_pool_keeps_one_byte_per_pixel(tmp_path):
    n = 50
    pixels = Rng(3).integers(256, size=(n, 28, 28)).astype(np.uint8)
    pool = load_mnist(*write_idx_pair(tmp_path, pixels, [i % 10 for i in range(n)]))
    assert pool.x.dtype == np.uint8 and pool.x.nbytes == n * 784
    idx = np.array([7, 0, 49, 7])
    codes = pixels.reshape(n, 784)[idx]
    # the bits the float64 pool held: one cast and one division per element
    assert np.array_equal(pool.features(idx), codes.astype(np.float64) / 255.0)
    dev = pool.subset(idx)
    assert dev.x.dtype == np.uint8 and dev.scale == pool.scale


@pytest.mark.skipif(
    expacc.harness._openblas_threads() is None,
    reason="numpy bundles no OpenBLAS thread setter, so no stack splits",
)
def test_a_split_stack_holds_at_most_one_more_evaluation_copy(monkeypatch):
    # 9 MNIST-shaped logreg points (3 folds x 3 losses) split into two
    # stacks on two cores; each stack copies the test set for an evaluation
    # (its `subset` and its float features), so two stacks evaluating at
    # once hold one copy more than one stack does, and never two more
    pool, test = mnist_shaped_pool(n=1000), mnist_shaped_pool(n=2000)
    plan = make_folds(Rng(1), pool.n, "kfold", k=10)
    cfgs = [
        TrainConfig(loss=LossSpec(kind), lr=1e-3, batch_size=64, max_epochs=1)
        for kind in ("neglog", "eerr", "leerr")
    ]
    train_run = expacc.harness.train_run
    peaks, stacks = [], []

    def recording(*job):
        stacks.append(len(job[6]))
        return train_run(*job)

    monkeypatch.setattr(expacc.harness, "train_run", recording)
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = replicate(
                "logreg", pool, plan, cfgs, test=test, master_seed=2, noise_p=0.05, max_folds=3
            )
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert all(o.ok for o in out)
    assert sorted(stacks) == [4, 5, 9]
    copy = 2 * test.x.nbytes
    assert peaks[0] > copy  # the one stack's evaluation copy is the largest term
    assert peaks[1] - peaks[0] < 1.5 * copy
