"""Label noise hurts, but it hurts the log likelihood more.

Corrupted labels land deep in the loss's saturated region, where the log
likelihood still pulls hard while the expected-error family mostly shrugs.
The script trains a small MLP on clustered data, then retrains with a
fraction of the training/development labels redrawn uniformly at random
(the test labels stay clean), and compares the damage per loss.

Run:  python demos/05_label_noise_robustness.py
"""

import numpy as np

from expacc.data import Dataset, make_folds
from expacc.harness import TrainConfig, replicate
from expacc.losses import LossSpec
from expacc.numerics import Rng

LOSSES = [LossSpec("neglog"), LossSpec("leerr")]


def clustered(seed, n, d, k, spread):
    rng = Rng(seed)
    centers = rng.uniform(-spread, spread, size=(k, d))
    y = rng.integers(k, size=n)
    x = centers[y] + rng.normal(size=(n, d))
    return Dataset(x, y, k, "clusters")


def mean_errors(pool, plan, noise_p):
    cfgs = {
        spec.name: [TrainConfig(
            loss=spec, lr=5e-3, batch_size=32, patience=8, max_epochs=60,
            dropout=0.1,
        )]
        for spec in LOSSES
    }
    outcomes = replicate(
        "mlp", pool, plan, cfgs, master_seed=7, noise_p=noise_p, hidden=(16, 12, 8)
    )
    return {
        name: float(np.mean([o.result.test_error for o in outcomes if o.loss == name]))
        for name in cfgs
    }


def main():
    pool = clustered(seed=5, n=900, d=12, k=4, spread=2.2)
    plan = make_folds(Rng(6), pool.n, "kfold", k=3)

    clean = mean_errors(pool, plan, noise_p=0.0)
    noisy = mean_errors(pool, plan, noise_p=0.3)

    print("mean test error over 3 folds (test labels always clean):\n")
    print(f"{'loss':<8} {'clean':>8} {'noisy(p=0.3)':>14} {'degradation':>12}")
    for name in clean:
        print(f"{name:<8} {clean[name]:>8.3f} {noisy[name]:>14.3f} "
              f"{noisy[name] - clean[name]:>12.3f}")

    gap_nl = noisy["neglog"] - clean["neglog"]
    gap_le = noisy["leerr"] - clean["leerr"]
    print(f"\nleaky expected error gives up {gap_le:.3f} to the noise versus "
          f"{gap_nl:.3f} for the log likelihood.")


if __name__ == "__main__":
    main()
