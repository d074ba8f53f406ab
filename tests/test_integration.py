"""End-to-end pipeline checks against analytically known targets.

The benchmark-file criteria in test_acceptance.py need datasets that cannot
ship with the repo; these tests drive the identical code paths on synthetic
data whose Bayes error is known in closed form, so the whole train /
replicate / summarize stack is verified without external files.
"""

import math

import numpy as np
import pytest

from expacc.data import make_folds
from expacc.harness import TrainConfig, replicate
from expacc.losses import LossSpec, loss_grad_preact
from expacc.models import build_model
from expacc.numerics import Rng
from expacc.stats import summarize
from helpers import blobs, two_gaussians

NEGLOG, EERR, LEERR = LossSpec("neglog"), LossSpec("eerr"), LossSpec("leerr")


def test_five_by_two_replication_recovers_bayes_error():
    # class means 1.683 apart in one axis: Bayes error = Phi(-0.8416) = 0.20,
    # and logistic regression is well-specified for this geometry
    delta = 1.6832424671458288
    bayes = 0.5 * math.erfc(delta / 2.0 / math.sqrt(2.0))
    assert bayes == pytest.approx(0.20, abs=1e-6)

    pool = two_gaussians(42, 1200, d=6, delta=delta)
    plan = make_folds(Rng(43), pool.n, "five_by_two")
    specs = (NEGLOG, EERR, LEERR)
    cfgs = [
        TrainConfig(loss=spec, lr=lr, batch_size=64, min_epochs=30, patience=10)
        for spec in specs
        for lr in (1e-3, 1e-2, 1e-1)
    ]
    outcomes = replicate("logreg", pool, plan, cfgs, master_seed=44)
    assert all(o.ok for o in outcomes)
    results = {
        spec.name: [o.result.test_error for o in outcomes if o.loss == spec.name]
        for spec in specs
    }
    for name, errors in results.items():
        assert len(errors) == 10
        mean = float(np.mean(errors))
        # the error can only approach the Bayes rate from above, modulo the
        # small optimism of reusing the dev half as the 2-fold test half
        assert abs(mean - bayes) < 0.035, (name, mean)

    report = summarize(results)
    assert report.n_replicates == 10
    assert {e.loss for e in report.entries} == set(results)


def test_mlp_noise_robustness_direction_on_synthetic_blobs():
    # heavy label noise must cost test accuracy for both losses, with the
    # same machinery criterion 8 uses on MNIST
    pool = blobs(50, 900, d=12, k=4, spread=2.2)
    plan = make_folds(Rng(51), pool.n, "kfold", k=3)

    def run(noise_p):
        cfgs = [
            TrainConfig(loss=spec, lr=5e-3, batch_size=32, patience=8, max_epochs=60,
                        dropout=0.1)
            for spec in (NEGLOG, LEERR)
        ]
        outcomes = replicate(
            "mlp", pool, plan, cfgs, master_seed=52, noise_p=noise_p, hidden=(16, 12, 8)
        )
        assert all(o.ok for o in outcomes)
        return {
            cfg.loss.name: float(np.mean(
                [o.result.test_error for o in outcomes if o.loss == cfg.loss.name]
            ))
            for cfg in cfgs
        }

    clean = run(0.0)
    noisy = run(0.4)
    for name in clean:
        assert clean[name] < 0.25, clean
        assert noisy[name] > clean[name], (clean, noisy)


def test_gradient_norm_ratio_on_pixel_like_data():
    # criterion 4's property on synthetic stand-in data: at a fresh Xavier
    # initialization the eerr gradient norm trails neglog by ~the class count
    rng = Rng(60)
    k, d, n = 10, 784, 8000
    centers = rng.uniform(0.0, 0.6, size=(k, d))
    y = rng.integers(k, size=n)
    x = np.clip(centers[y] + rng.normal(size=(n, d)) * 0.25, 0.0, 1.0)
    preact, _ = build_model("logreg", Rng(61), d, k).forward(x)
    neglog, eerr = (
        loss_grad_preact(spec, preact, y).per_instance_norms.mean() for spec in (NEGLOG, EERR)
    )
    assert neglog / eerr >= 10.0
