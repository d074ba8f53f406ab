"""Experiment engine: epoch loop, early stopping, replicated comparisons.

A single `train_run` owns one model: per epoch it shuffles, takes minibatch
Adam steps, records train loss/accuracy, dev accuracy, and the mean
pre-activation gradient norm, then restores the best-dev-accuracy epoch and
measures test accuracy with argmax predictions.

`replicate` runs every (fold, loss) cell of a cross-validated comparison,
one cell after another, with the pairing guarantees the analysis needs:
identical fold indices and identical noisy labels across losses within a
fold, and an independent initialization seed per (master seed, fold, loss).
Both `expacc run` and `expacc gradnorms` train their cells through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import Dataset, SplitPlan, inject_label_noise
from .losses import KINDS, LossSpec, loss_grad_preact
from .models import build_model
from .numerics import Rng
from .optim import Adam, minibatches

__all__ = [
    "EpochRecord",
    "FoldOutcome",
    "RunResult",
    "TrainConfig",
    "TrainingDiverged",
    "accuracy",
    "grad_norm_probe",
    "replicate",
    "should_stop",
    "train_run",
]

# Child-stream keys drawn from one run seed.
_INIT, _BATCH, _DROPOUT = 0, 1, 2
# Child-stream keys drawn from a master seed.
_NOISE_KEY, _RUN_KEY, _PLAN_KEY = 0, 1, 2


class TrainingDiverged(RuntimeError):
    """Raised when a training step produces a non-finite loss."""


def should_stop(epoch: int, best_epoch: int, cfg: TrainConfig) -> bool:
    """Early-stopping decision after `epoch` has completed.

    Hard stop at `max_epochs`.  The patience rule only arms once
    `min_epochs` have run, and its window is measured from the later of the
    best epoch and `min_epochs`, so a run with no improvement after epoch 1
    and min_epochs=100, patience=15 stops at epoch 115.
    """
    if cfg.max_epochs is not None and epoch >= cfg.max_epochs:
        return True
    return (
        cfg.patience is not None
        and epoch >= cfg.min_epochs
        and epoch - max(best_epoch, cfg.min_epochs) >= cfg.patience
    )


@dataclass
class TrainConfig:
    """Settings for one training run."""

    loss: LossSpec
    lr: float = 1e-4
    batch_size: int = 64
    max_epochs: int | None = None
    min_epochs: int = 0
    patience: int | None = None
    dropout: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs is not None and self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.min_epochs < 0:
            raise ValueError(f"min_epochs must be >= 0, got {self.min_epochs}")
        if self.max_epochs is not None and self.min_epochs > self.max_epochs:
            raise ValueError(
                f"min_epochs {self.min_epochs} exceeds max_epochs {self.max_epochs}"
            )
        if self.patience is not None and self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.patience is None and self.max_epochs is None:
            raise ValueError("need a stopping rule: set patience and/or max_epochs")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must lie in [0, 1), got {self.dropout}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    dev_acc: float
    grad_norm_mean: float


@dataclass
class RunResult:
    records: list
    best_epoch: int
    test_error: float
    test_acc: float

    @property
    def best_dev_acc(self) -> float:
        return self.records[self.best_epoch - 1].dev_acc


def accuracy(model, ds: Dataset) -> float:
    """Argmax accuracy of an eval-mode forward pass."""
    preact, _ = model.forward(ds.x, "eval")
    return float((preact.argmax(axis=1) == ds.labels).mean())


def train_run(
    model_kind: str,
    train: Dataset,
    dev: Dataset,
    test: Dataset,
    cfg: TrainConfig,
    hidden=(300, 200, 100),
) -> RunResult:
    """Train one model and evaluate its best early-stopping epoch on test.

    Stopping: always at `max_epochs` when set; additionally once at least
    `min_epochs` have run and `patience` epochs have passed without a dev
    improvement (the patience window starts counting at `min_epochs`).
    Ties in dev accuracy keep the earliest epoch.
    """
    for part, ds in (("train", train), ("dev", dev), ("test", test)):
        if ds.n == 0:
            raise ValueError(f"{part} split is empty")
    root = Rng(cfg.seed)
    model_kwargs = {}
    if model_kind == "mlp":
        model_kwargs = dict(
            hidden=hidden, input_dropout=cfg.dropout, hidden_dropout=cfg.dropout
        )
    elif cfg.dropout != 0.0:
        raise ValueError(f"dropout is only meaningful for mlp, not {model_kind}")
    model = build_model(model_kind, root.child(_INIT), train.d, train.k, **model_kwargs)
    batch_rng = root.child(_BATCH)
    dropout_rng = root.child(_DROPOUT)
    opt = Adam(cfg.lr)

    records = []
    best_epoch = 0
    best_dev = -math.inf
    best_params = None
    epoch = 0
    while True:
        epoch += 1
        loss_sum = 0.0
        hit_sum = 0.0
        norm_sum = 0.0
        for batch_no, idx in enumerate(minibatches(batch_rng, train.n, cfg.batch_size)):
            xb = train.x[idx]
            yb = train.labels[idx]
            preact, trace = model.forward(xb, "train", dropout_rng)
            batch = loss_grad_preact(cfg.loss, preact, yb)
            if not math.isfinite(batch.mean_loss):
                raise TrainingDiverged(
                    f"{cfg.loss.name}: non-finite loss at epoch {epoch}, batch {batch_no}"
                )
            opt.step(model.params(), model.backward(trace, batch.grad_preact))
            loss_sum += batch.mean_loss * idx.size
            hit_sum += float((preact.argmax(axis=1) == yb).sum())
            norm_sum += float(batch.per_instance_norms.sum())

        dev_acc = accuracy(model, dev)
        records.append(
            EpochRecord(
                epoch=epoch,
                train_loss=loss_sum / train.n,
                train_acc=hit_sum / train.n,
                dev_acc=dev_acc,
                grad_norm_mean=norm_sum / train.n,
            )
        )
        if dev_acc > best_dev:
            best_dev = dev_acc
            best_epoch = epoch
            best_params = [p.copy() for p in model.params()]

        if should_stop(epoch, best_epoch, cfg):
            break

    for p, best in zip(model.params(), best_params):
        p[...] = best
    test_acc = accuracy(model, test)
    return RunResult(
        records=records,
        best_epoch=best_epoch,
        test_error=1.0 - test_acc,
        test_acc=test_acc,
    )


def grad_norm_probe(model, x: np.ndarray, labels, losses) -> dict:
    """Mean per-instance pre-activation gradient norm at current parameters.

    All losses see the same eval-mode forward pass, so the comparison is
    between losses, not between parameter states.
    """
    preact, _ = model.forward(np.asarray(x, dtype=np.float64), "eval")
    labels = np.asarray(labels)
    return {
        spec.name: float(loss_grad_preact(spec, preact, labels).per_instance_norms.mean())
        for spec in losses
    }


@dataclass
class FoldOutcome:
    """One (fold, loss) cell of a replicated comparison."""

    loss: str
    fold: int
    lr: float
    dropout: float
    result: RunResult | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def _fold_test_dataset(pool: Dataset, plan: SplitPlan, test, dev_idx) -> Dataset:
    if test is not None:
        return test
    if plan.test is not None:
        return pool.subset(plan.test, name=f"{pool.name}-test")
    # 2-fold convention: the held-out half is both dev and test, with its
    # original (clean) labels for the test measurement.
    return pool.subset(dev_idx, name=f"{pool.name}-dev")


def _run_cell(
    model_kind,
    pool,
    plan,
    fold_index,
    cfg,
    test,
    master_seed,
    noise_p,
    grid,
    hidden,
):
    train_idx, dev_idx = plan.folds[fold_index]
    noisy = inject_label_noise(
        Rng(master_seed).child(_NOISE_KEY, fold_index), pool, noise_p
    )
    train_ds = noisy.subset(train_idx, name=f"{pool.name}-train")
    dev_ds = noisy.subset(dev_idx, name=f"{pool.name}-dev")
    test_ds = _fold_test_dataset(pool, plan, test, dev_idx)
    # Seed keyed by the loss's canonical index, not dict position, so
    # reordering cfgs cannot change any run.
    seed = Rng(master_seed).child(_RUN_KEY, fold_index, KINDS.index(cfg.loss.kind)).seed

    chosen = None
    for lr, dropout in grid:
        run_cfg = replace(cfg, lr=lr, dropout=dropout, seed=seed)
        result = train_run(model_kind, train_ds, dev_ds, test_ds, run_cfg, hidden=hidden)
        if chosen is None or result.best_dev_acc > chosen[2].best_dev_acc:
            chosen = (lr, dropout, result)
    lr, dropout, result = chosen
    return FoldOutcome(cfg.loss.name, fold_index, lr, dropout, result)


def replicate(
    model_kind: str,
    pool: Dataset,
    plan: SplitPlan,
    cfgs: dict,
    *,
    test: Dataset | None = None,
    master_seed: int = 0,
    noise_p: float = 0.0,
    lr_grid=None,
    dropout_grid=None,
    hidden=(300, 200, 100),
    max_folds: int | None = None,
):
    """Run every fold of `plan` for every loss in `cfgs`, fold by fold.

    `cfgs` maps loss name -> TrainConfig (whose `loss` must match the key).
    `noise_p` is the label-noise level of the training/development pool:
    the corrupted labels are drawn per fold from the master seed, so every
    loss of a fold sees the same ones.  Hyperparameter grids, when given,
    are searched per (fold, loss) by dev accuracy with ties going to the
    earliest grid point.  Failed runs are reported as `FoldOutcome`s
    carrying the error; remaining cells still run.
    """
    if not cfgs:
        raise ValueError("need at least one loss config")
    for name, cfg in cfgs.items():
        if cfg.loss.name != name:
            raise ValueError(f"config key {name!r} does not match loss {cfg.loss.name!r}")
    if not 0.0 <= noise_p <= 1.0:
        raise ValueError(f"noise_p must lie in [0, 1], got {noise_p}")

    n_folds = len(plan.folds) if max_folds is None else min(max_folds, len(plan.folds))
    outcomes = []
    for fold_index in range(n_folds):
        for name, cfg in cfgs.items():
            grid = [
                (lr, dropout)
                for lr in (lr_grid or [cfg.lr])
                for dropout in (dropout_grid or [cfg.dropout])
            ]
            try:
                outcome = _run_cell(
                    model_kind, pool, plan, fold_index, cfg, test,
                    master_seed, noise_p, grid, hidden,
                )
            except Exception as exc:  # propagate per-run failures as data
                outcome = FoldOutcome(name, fold_index, cfg.lr, cfg.dropout, None, error=str(exc))
            outcomes.append(outcome)
    return outcomes
