"""Memory a replicated comparison takes beyond its pool.

Each fold trains on row indices into the pool, so a fold adds only its small
dev and test copies, never a copy of the train split, whatever the pool's
size.
"""

import tracemalloc

import numpy as np

import expacc.harness
from expacc.data import Dataset, make_folds
from expacc.harness import TrainConfig, replicate
from expacc.losses import LossSpec
from expacc.numerics import Rng

CFGS = {"neglog": [TrainConfig(loss=LossSpec("neglog"), lr=1e-3, max_epochs=1)]}


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

    def recording(model_kind, train, dev, test, cfg, hidden):
        seen.append((train, np.shares_memory(train.ds.x, pool.x)))
        return train_run(model_kind, train, dev, test, cfg, hidden)

    monkeypatch.setattr(expacc.harness, "train_run", recording)
    plan, _ = run(pool)
    assert len(seen) == 2
    for fold, (train, shares) in enumerate(seen):
        assert shares
        assert train.n == len(plan.folds[fold][0])
