
import numpy as np
import pytest

from expacc.data import make_folds
from expacc.harness import (
    FoldOutcome,
    TrainConfig,
    TrainingDiverged,
    grad_norm_probe,
    replicate,
    should_stop,
    train_run,
)
from expacc.losses import LossSpec
from expacc.models import build_model
from expacc.numerics import Rng
from helpers import blobs, two_gaussians

NEGLOG, EERR, LEERR = LossSpec("neglog"), LossSpec("eerr"), LossSpec("leerr")


def small_splits(seed=0, n=120, d=4):
    ds = two_gaussians(seed, n, d, delta=2.0)
    plan = make_folds(Rng(seed + 1), n, "fixed", train_size=60, dev_size=30)
    train_idx, dev_idx = plan.folds[0]
    return ds.subset(train_idx), ds.subset(dev_idx), ds.subset(plan.test)


def test_config_validation():
    with pytest.raises(ValueError, match="stopping rule"):
        TrainConfig(loss=NEGLOG)
    with pytest.raises(ValueError, match="min_epochs"):
        TrainConfig(loss=NEGLOG, min_epochs=10, max_epochs=5)
    with pytest.raises(ValueError, match="patience"):
        TrainConfig(loss=NEGLOG, patience=0)
    with pytest.raises(ValueError, match="dropout"):
        TrainConfig(loss=NEGLOG, max_epochs=1, dropout=1.0)


def test_stopping_rule_examples():
    # dev improves every epoch: patience never fires, max_epochs ends the run
    cfg = TrainConfig(loss=NEGLOG, patience=15, max_epochs=20)
    assert not any(should_stop(e, e, cfg) for e in range(1, 20))
    assert should_stop(20, 20, cfg)

    # no improvement after epoch 1 with a 100-epoch minimum: stop at 115
    cfg = TrainConfig(loss=NEGLOG, min_epochs=100, patience=15)
    assert not any(should_stop(e, 1, cfg) for e in range(1, 115))
    assert should_stop(115, 1, cfg)

    # plain patience with no minimum
    cfg = TrainConfig(loss=NEGLOG, patience=30)
    assert not should_stop(34, 5, cfg)
    assert should_stop(35, 5, cfg)


def test_min_epochs_patience_integration():
    train, dev, test = small_splits()
    cfg = TrainConfig(loss=NEGLOG, lr=0.0, batch_size=64, min_epochs=100, patience=15)
    result = train_run("logreg", train, dev, test, cfg)
    assert len(result.records) == 115
    assert result.best_epoch == 1


def test_lr_zero_freezes_every_metric():
    train, dev, test = small_splits(1)
    cfg = TrainConfig(loss=LEERR, lr=0.0, batch_size=32, max_epochs=8)
    result = train_run("logreg", train, dev, test, cfg)
    first = result.records[0]
    for rec in result.records[1:]:
        assert rec.dev_acc == first.dev_acc
        assert rec.train_acc == first.train_acc
        assert rec.train_loss == pytest.approx(first.train_loss, abs=1e-12)
        assert rec.grad_norm_mean == pytest.approx(first.grad_norm_mean, abs=1e-12)


def test_same_seed_reproduces_run_exactly():
    train, dev, test = small_splits(2)
    cfg = TrainConfig(
        loss=EERR, lr=1e-2, batch_size=16, max_epochs=12, patience=None, seed=9
    )
    a = train_run("logreg", train, dev, test, cfg)
    b = train_run("logreg", train, dev, test, cfg)
    assert a.best_epoch == b.best_epoch
    assert a.test_acc == b.test_acc
    for ra, rb in zip(a.records, b.records):
        assert (ra.train_loss, ra.dev_acc, ra.grad_norm_mean) == (
            rb.train_loss,
            rb.dev_acc,
            rb.grad_norm_mean,
        )


def test_best_epoch_attains_max_dev_accuracy_and_model_reproduces_it():
    train, dev, _ = small_splits(3)
    cfg = TrainConfig(loss=NEGLOG, lr=5e-2, batch_size=32, max_epochs=25, seed=4)
    # dev doubles as test, so the test measurement is the restored model's
    # dev accuracy
    result = train_run("logreg", train, dev, dev, cfg)
    dev_curve = [r.dev_acc for r in result.records]
    assert result.records[result.best_epoch - 1].dev_acc == max(dev_curve)
    # ties break to the earliest epoch
    assert dev_curve.index(max(dev_curve)) + 1 == result.best_epoch
    assert result.test_acc == result.best_dev_acc
    assert result.test_error == pytest.approx(1.0 - result.test_acc, abs=1e-15)


def test_divergence_aborts_with_location():
    train, dev, test = small_splits(5)
    train.x[0, 0] = 1e308  # overflows the pre-activations once lr moves weights
    cfg = TrainConfig(loss=NEGLOG, lr=10.0, batch_size=8, max_epochs=50, seed=1)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDiverged, match="epoch"):
            train_run("logreg", train, dev, test, cfg)


def test_mlp_trains_on_blobs():
    ds = blobs(10, 400, d=6, k=3, spread=3.0)
    plan = make_folds(Rng(11), ds.n, "fixed", train_size=250, dev_size=75)
    train_idx, dev_idx = plan.folds[0]
    cfg = TrainConfig(loss=LEERR, lr=1e-2, batch_size=32, max_epochs=30, dropout=0.1, seed=2)
    result = train_run(
        "mlp", ds.subset(train_idx), ds.subset(dev_idx), ds.subset(plan.test),
        cfg, hidden=(16, 12, 8),
    )
    assert result.test_acc > 0.8


def test_grad_norm_probe_ordering_and_scale():
    # at a fresh initialization the eerr norm is the neglog norm damped by
    # p_r, so their ratio is roughly the class count
    ds = blobs(12, 2000, d=100, k=10, spread=0.3)
    model = build_model("logreg", Rng(13), ds.d, ds.k)
    norms = grad_norm_probe(model, ds.x, ds.labels, [NEGLOG, EERR, LEERR])
    assert norms["eerr"] <= norms["neglog"]
    assert norms["neglog"] / norms["eerr"] >= 5.0
    # leerr = eerr + alpha*neglog componentwise, so its norm is bounded by the sum
    assert norms["leerr"] <= norms["eerr"] + 0.1 * norms["neglog"] + 1e-12


def test_grad_norms_vanish_when_perfectly_classified():
    from expacc.losses import loss_grad_preact

    ds = blobs(14, 50, d=4, k=3, spread=1.0)
    # huge correct-class scores: p_r ~ 1 for every instance
    preact = np.zeros((ds.n, ds.k))
    preact[np.arange(ds.n), ds.labels] = 500.0
    for spec in (NEGLOG, EERR, LEERR):
        assert loss_grad_preact(spec, preact, ds.labels).per_instance_norms.mean() < 1e-12


def test_replicate_pairing_and_order_independence():
    ds = two_gaussians(20, 200, 4, delta=1.5)
    plan = make_folds(Rng(21), ds.n, "five_by_two")

    def cfg(spec):
        return TrainConfig(loss=spec, lr=1e-2, batch_size=32, max_epochs=10)

    forward = replicate(
        "logreg", ds, plan, {"neglog": cfg(NEGLOG), "eerr": cfg(EERR)}, master_seed=5,
        noise_p=0.1,
    )
    backward = replicate(
        "logreg", ds, plan, {"eerr": cfg(EERR), "neglog": cfg(NEGLOG)}, master_seed=5,
        noise_p=0.1,
    )
    key = lambda o: (o.loss, o.fold)
    fw = {key(o): o.result.test_error for o in forward}
    bw = {key(o): o.result.test_error for o in backward}
    assert fw == bw
    assert len(fw) == 20


def test_replicate_tuning_grid_selects_by_dev_accuracy():
    ds = two_gaussians(24, 240, 4, delta=2.0)
    plan = make_folds(Rng(25), ds.n, "fixed", train_size=150, dev_size=60)
    cfgs = {"neglog": TrainConfig(loss=NEGLOG, lr=1e-9, batch_size=32, max_epochs=15)}
    out = replicate(
        "logreg", ds, plan, cfgs, master_seed=2, lr_grid=[1e-9, 5e-2]
    )
    assert len(out) == 1
    # the tiny lr leaves the model at its random initialization; the grid
    # search must pick the useful one
    assert out[0].lr == 5e-2


def test_replicate_continues_past_failing_fold():
    ds = two_gaussians(26, 80, 3, delta=1.0)
    plan = make_folds(Rng(27), ds.n, "kfold", k=4)
    plan.folds[1] = (plan.folds[1][0], np.array([], dtype=int))  # breaks one fold
    cfgs = {"neglog": TrainConfig(loss=NEGLOG, lr=1e-2, batch_size=16, max_epochs=3)}
    out = replicate("logreg", ds, plan, cfgs, master_seed=3)
    assert sum(not o.ok for o in out) == 1
    assert sum(o.ok for o in out) == 3
    bad = next(o for o in out if not o.ok)
    assert bad.fold == 1 and bad.result is None and bad.error


def test_replicate_rejects_noise_level_outside_unit_interval():
    # a noise level outside [0, 1] raises before any cell runs, instead of
    # becoming a failed-fold row
    ds = two_gaussians(28, 60, 3, delta=1.0)
    plan = make_folds(Rng(29), ds.n, "kfold", k=2)
    cfgs = {"neglog": TrainConfig(loss=NEGLOG, max_epochs=1)}
    with pytest.raises(ValueError, match="noise_p"):
        replicate("logreg", ds, plan, cfgs, noise_p=1.5)


def test_replicate_noise_keeps_test_labels_clean():
    # with dev doubling as test, the test measurement must use clean labels:
    # a run at noise_p=1 still evaluates against the original dev labels
    ds = two_gaussians(30, 100, 3, delta=3.0)
    plan = make_folds(Rng(31), ds.n, "five_by_two")
    cfgs = {"neglog": TrainConfig(loss=NEGLOG, lr=5e-2, batch_size=32, max_epochs=10)}
    out = replicate("logreg", ds, plan, cfgs, master_seed=4, noise_p=1.0, max_folds=2)
    # pure-noise training performs near chance on clean labels, but the
    # errors are measured against clean labels, not the redrawn ones;
    # mostly we assert the runs completed and produced sane fractions
    for o in out:
        assert o.ok and 0.0 <= o.result.test_error <= 1.0
