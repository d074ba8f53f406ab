"""A complete replicated comparison on data with a known answer.

Two unit-variance Gaussian classes whose means sit delta apart have Bayes
error Phi(-delta/2); logistic regression can reach it.  The script runs the
full 5x2-fold machinery -- paired folds, per-fold learning-rate tuning on
the development half, early stopping, paired t-tests -- exactly as a real
benchmark run would, and prints the significance report.

Run:  python demos/04_cross_validated_comparison.py
"""

import math

import numpy as np

from expacc.data import Dataset, make_folds
from expacc.harness import TrainConfig, replicate
from expacc.losses import LossSpec
from expacc.numerics import Rng
from expacc.stats import render_report, summarize

LOSSES = [LossSpec("neglog"), LossSpec("eerr"), LossSpec("leerr")]


def gaussian_pair(seed, n, d, delta):
    rng = Rng(seed)
    y = rng.integers(2, size=n)
    x = rng.normal(size=(n, d))
    x[:, 0] += np.where(y == 1, delta / 2.0, -delta / 2.0)
    return Dataset(x, y, 2, "gauss-pair")


def main():
    delta = 1.6832424671458288  # Phi(-delta/2) = 0.20
    pool = gaussian_pair(seed=42, n=1200, d=6, delta=delta)
    print(f"dataset: {pool.n} instances, {pool.d} features, "
          f"Bayes error {0.5 * math.erfc(delta / 2 / math.sqrt(2)):.3f}\n")

    plan = make_folds(Rng(43), pool.n, "five_by_two")
    # one candidate per learning rate; each fold keeps the best on dev
    cfgs = [
        TrainConfig(loss=spec, lr=lr, batch_size=64, min_epochs=30, patience=10)
        for spec in LOSSES
        for lr in (1e-3, 1e-2, 1e-1)
    ]
    outcomes = replicate("logreg", pool, plan, cfgs, master_seed=44)
    cells = {spec.name: [o for o in outcomes if o.loss == spec.name] for spec in LOSSES}

    print("per-fold test errors (tuned lr in parentheses):")
    for name, folds in cells.items():
        row = "  ".join(f"{o.result.test_error:.3f}({o.lr:g})" for o in folds)
        print(f"  {name:<8} {row}")

    results = {name: [o.result.test_error for o in row] for name, row in cells.items()}
    print()
    print(render_report(summarize(results), title="5x2-fold comparison"))
    print("all three should hover near the 0.200 Bayes floor; the paired "
          "t-test then asks whether any gap between them is real.")


if __name__ == "__main__":
    main()
