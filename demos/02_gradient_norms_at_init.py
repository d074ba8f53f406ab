"""Why the plain expected-error loss starts slow.

At a fresh Xavier initialization the softmax spreads its mass nearly
uniformly, so the expected-error gradient -- the log-likelihood gradient
damped by the true-class probability -- is about k times smaller.  This
script measures that gap on a pixel-like 10-class problem, then trains a
few epochs with each loss and prints the per-epoch mean gradient norms so
the plateau is visible in numbers.

Run:  python demos/02_gradient_norms_at_init.py
"""

import numpy as np

from expacc.data import Dataset, Rows, make_folds
from expacc.harness import TrainConfig, grad_norm_probe, train_run
from expacc.losses import LossSpec
from expacc.models import build_model
from expacc.numerics import Rng

LOSSES = [LossSpec("neglog"), LossSpec("eerr"), LossSpec("leerr")]


def pixel_like_dataset(seed=0, n=6000, d=784, k=10):
    rng = Rng(seed)
    centers = rng.uniform(0.0, 0.6, size=(k, d))
    y = rng.integers(k, size=n)
    x = np.clip(centers[y] + rng.normal(size=(n, d)) * 0.25, 0.0, 1.0)
    return Dataset(x, y, k, "pixelish")


def main():
    ds = pixel_like_dataset()
    model = build_model("logreg", Rng(1), ds.d, ds.k)
    norms = grad_norm_probe(model, ds.x, ds.labels, LOSSES)
    print("mean gradient norms w.r.t. pre-activations at initialization:")
    for name, value in norms.items():
        print(f"  {name:<8} {value:.4f}")
    print(f"  ratio neglog/eerr = {norms['neglog'] / norms['eerr']:.1f} "
          f"(about the class count, k={ds.k})\n")

    plan = make_folds(Rng(2), ds.n, "fixed", train_size=4500, dev_size=1500)
    train_idx, dev_idx = plan.folds[0]
    print("per-epoch mean gradient norms while actually training:")
    print(f"{'epoch':>5}" + "".join(f"{s.name:>12}" for s in LOSSES))
    columns = {}
    for spec in LOSSES:
        cfg = TrainConfig(loss=spec, lr=1e-4, batch_size=64, max_epochs=8, seed=3)
        result = train_run(
            "logreg", Rows(ds, train_idx), ds.subset(dev_idx), ds.subset(dev_idx), cfg
        )
        columns[spec.name] = [r.grad_norm_mean for r in result.records]
    for e in range(8):
        print(f"{e + 1:>5}" + "".join(f"{columns[s.name][e]:>12.4f}" for s in LOSSES))
    print("\nthe leaky loss tracks eerr's shape but never loses the alpha "
          "* neglog floor.")


if __name__ == "__main__":
    main()
