"""Experiment engine: epoch loop, early stopping, replicated comparisons.

A single `train_run` trains one (fold, loss) cell: every grid point of its
(lr, dropout) search, stacked along a leading axis of one network and
stepped in lockstep.  Per epoch it shuffles once, takes minibatch Adam steps
for all live points, and records each point's train loss/accuracy, dev
accuracy and mean pre-activation gradient norm; a point that stops early or
diverges leaves the stack.  At the end each point's best-dev-accuracy
parameters are measured on test with argmax predictions, and the best point
wins the cell.  Each point's numbers are bit-identical to training it alone.

`replicate` runs every (fold, loss) cell of a cross-validated comparison,
fold by fold, with the pairing guarantees the analysis needs: each fold's
noisy labels and dev copy are built once and shared by every loss and every
candidate config, and every candidate of a cell trains from one
initialization seed per (master seed, fold, loss).  Train rows index the
pool, whose features every fold shares; only the dev (and a plan's test)
rows are copied, and only one fold's copies are alive at a time.  Both
`expacc run` and `expacc gradnorms` train their cells through it.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import DataError, Dataset, EmptyDataError, Rows, SplitPlan, inject_label_noise
from .losses import KINDS, LossSpec, loss_grad_preact
from .models import DEFAULT_HIDDEN, build_model
from .numerics import Rng
from .optim import Adam, minibatches

__all__ = [
    "CellResult",
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
    """Raised when a training step produces a non-finite loss; `point` is the
    index of the grid point whose loss it was."""

    def __init__(self, message: str, point: int = 0):
        super().__init__(message)
        self.point = point


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
        if not 0 <= self.lr < math.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
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


@dataclass
class CellResult:
    """The runs of one cell's grid points, in candidate order, and the index
    of the one with the best dev accuracy (ties go to the earliest point).

    `records` is every epoch of every point, point-major, and `best_epoch`
    and the test measures are the winner's, so a one-point cell reads like
    its only run.
    """

    runs: list
    best: int

    @property
    def winner(self) -> RunResult:
        return self.runs[self.best]

    @property
    def records(self) -> list:
        return [r for run in self.runs for r in run.records]

    @property
    def best_epoch(self) -> int:
        return self.winner.best_epoch

    @property
    def test_acc(self) -> float:
        return self.winner.test_acc

    @property
    def test_error(self) -> float:
        return self.winner.test_error

    @property
    def best_dev_acc(self) -> float:
        return self.winner.best_dev_acc


def accuracy(model, ds: Dataset):
    """Argmax accuracy of a forward pass without dropout: a float, or one per
    grid point of a stacked model."""
    preact, _ = model.forward(ds.features())
    return (preact.argmax(axis=-1) == ds.labels).mean(axis=-1)


def train_run(
    model_kind: str,
    train: Rows,
    dev: Dataset,
    test: Dataset,
    cfg: TrainConfig,
    hidden=DEFAULT_HIDDEN,
    points=None,
) -> CellResult:
    """Train every grid point of one cell and evaluate each at its best
    early-stopping epoch on test.

    `points` lists each point's (lr, dropout), by default `cfg`'s own; every
    other setting of `cfg`, the seed included, is shared.  The points train
    in lockstep as one stacked network: one minibatch permutation, one
    forward pass, one loss, one backward pass and one Adam step per step for
    all of them.  They share the initialization, the minibatches and the
    dropout draws that separate runs from `cfg.seed` would make, and each
    point's slice gets the bits its own run would, so the stack changes only
    how many steps Python pays for.

    Each minibatch gathers its rows of `train.ds` through `train.index`
    (`take`, the same rows and bits as fancy indexing, with less overhead
    per call), so the training split is never copied whole, and only those
    rows are scaled to float features (`Dataset.features`).

    Stopping, per point: always at `max_epochs` when set; additionally once
    at least `min_epochs` have run and `patience` epochs have passed without
    a dev improvement (the patience window starts counting at
    `min_epochs`).  Ties in dev accuracy keep the earliest epoch.  A point
    that stops leaves the stack and is no longer stepped.

    A non-finite loss fails the cell with `TrainingDiverged` for the first
    point, in candidate order, that diverges, as training the points one by
    one in order would: the points after it leave the stack at once, and
    the ones before it train on until they stop or diverge themselves.
    """
    points = [(cfg.lr, cfg.dropout)] if points is None else list(points)
    for lr, dropout in points:
        replace(cfg, lr=lr, dropout=dropout)  # validates the point
    for part, ds in (("train", train), ("dev", dev), ("test", test)):
        if ds.n == 0:
            raise EmptyDataError(f"{part} split is empty")
    lrs, dropouts = (np.array(v, dtype=np.float64) for v in zip(*points))
    root = Rng(cfg.seed)
    model = build_model(model_kind, root.child(_INIT), train.d, train.k, hidden, dropouts)
    best = copy.deepcopy(model)  # each point's parameters at its best epoch
    batch_rng = root.child(_BATCH)
    dropout_rng = root.child(_DROPOUT)
    opt = Adam(lrs)
    labels, index = train.labels, train.index

    live = np.arange(len(points))  # candidate index of each point in the stack
    records = [[] for _ in points]
    best_epoch = [0] * len(points)
    best_dev = [-math.inf] * len(points)
    failure = None
    epoch = 0
    while live.size:
        epoch += 1
        loss_sum = np.zeros(live.size)
        hit_sum = np.zeros(live.size)
        norm_sum = np.zeros(live.size)
        for batch_no, idx in enumerate(minibatches(batch_rng, train.n, cfg.batch_size)):
            rows = index.take(idx)
            xb = train.ds.features(rows)
            yb = labels.take(rows)
            preact, trace = model.forward(xb, dropout_rng)
            batch = loss_grad_preact(cfg.loss, preact, yb)
            grads = model.backward(trace, batch.grad_preact)
            loss_sum += batch.mean_loss * idx.size
            hit_sum += (preact.argmax(axis=-1) == yb).sum(axis=-1)
            norm_sum += batch.per_instance_norms.sum(axis=-1)
            finite = np.isfinite(batch.mean_loss)
            if not finite.all():
                first = int(live[finite.argmin()])
                failure = TrainingDiverged(
                    f"{cfg.loss.name}: non-finite loss at epoch {epoch}, batch {batch_no}", first
                )
                keep = live < first
                live, loss_sum, hit_sum, norm_sum = (
                    a[keep] for a in (live, loss_sum, hit_sum, norm_sum)
                )
                grads = [g[keep] for g in grads]
                model.take(keep)
                opt.take(keep)
                if not live.size:
                    break
            opt.step(model.params(), grads)
        if not live.size:
            break

        dev_acc = accuracy(model, dev)
        stopped = np.zeros(live.size, dtype=bool)
        for j, point in enumerate(live):
            records[point].append(
                EpochRecord(
                    epoch=epoch,
                    train_loss=float(loss_sum[j] / train.n),
                    train_acc=float(hit_sum[j] / train.n),
                    dev_acc=float(dev_acc[j]),
                    grad_norm_mean=float(norm_sum[j] / train.n),
                )
            )
            if dev_acc[j] > best_dev[point]:
                best_dev[point] = dev_acc[j]
                best_epoch[point] = epoch
                for kept, p in zip(best.params(), model.params()):
                    kept[point] = p[j]
            stopped[j] = should_stop(epoch, best_epoch[point], cfg)
        if stopped.any():
            live = live[~stopped]
            model.take(~stopped)
            opt.take(~stopped)

    if failure is not None:
        raise failure
    test_acc = accuracy(best, test)
    runs = [
        RunResult(records[j], best_epoch[j], 1.0 - float(test_acc[j]), float(test_acc[j]))
        for j in range(len(points))
    ]
    return CellResult(runs, best=int(np.argmax(best_dev)))


def grad_norm_probe(model, x: np.ndarray, labels, losses) -> dict:
    """Mean per-instance pre-activation gradient norm at current parameters.

    All losses see the same forward pass without dropout, so the comparison
    is between losses, not between parameter states.
    """
    preact, _ = model.forward(x)
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


def _fold_outcomes(model_kind, pool, plan, fold_index, cfgs, test, master_seed, noise_p, hidden):
    """Train every loss's cell on one fold's data, built once for them all.

    Train rows index the pool under the fold's (noisy) labels; only the dev
    rows are copied, once, and the noisy-label dev set shares their features.
    """
    train_idx, dev_idx = plan.folds[fold_index]
    labels = inject_label_noise(Rng(master_seed).child(_NOISE_KEY, fold_index), pool, noise_p)
    train = Rows(pool, train_idx, labels)
    clean_dev = pool.subset(dev_idx, name=f"{pool.name}-dev")
    dev = replace(clean_dev, labels=labels[dev_idx])
    if test is None:
        # No test set given: test on the plan's test part, or, in the 2-fold
        # convention, on the held-out half, which is both dev and test, with
        # its original (clean) labels.
        test = clean_dev if plan.test is None else pool.subset(plan.test, name=f"{pool.name}-test")
    outcomes = []
    for name, candidates in cfgs.items():
        # Seed keyed by the loss's canonical index, not dict position, so
        # reordering cfgs cannot change any run.
        kind = KINDS.index(candidates[0].loss.kind)
        cfg = replace(candidates[0], seed=Rng(master_seed).child(_RUN_KEY, fold_index, kind).seed)
        points = [(c.lr, c.dropout) for c in candidates]
        try:
            cell = train_run(model_kind, train, dev, test, cfg, hidden, points)
        except (TrainingDiverged, DataError) as exc:  # expected failures are data
            # bad data fails the cell before any point trains: name the first
            failed = candidates[exc.point if isinstance(exc, TrainingDiverged) else 0]
            outcomes.append(FoldOutcome(name, fold_index, failed.lr, failed.dropout, None, str(exc)))
        else:
            won = candidates[cell.best]
            outcomes.append(FoldOutcome(name, fold_index, won.lr, won.dropout, cell.winner))
    return outcomes


def replicate(
    model_kind: str,
    pool: Dataset,
    plan: SplitPlan,
    cfgs: dict,
    *,
    test: Dataset | None = None,
    master_seed: int = 0,
    noise_p: float = 0.0,
    hidden=DEFAULT_HIDDEN,
    max_folds: int | None = None,
):
    """Run every fold of `plan` for every loss in `cfgs`, fold by fold.

    `cfgs` maps loss name -> the non-empty list of candidate TrainConfigs
    for that loss (each one's `loss` must match the key, and they may differ
    only in `lr` and `dropout`).  Every candidate of a (fold, loss) cell
    trains from the same run seed, all of them in one stacked `train_run`,
    and the cell keeps the one with the best dev accuracy, ties going to the
    earliest.
    `noise_p` is the label-noise level of the training/development pool:
    the corrupted labels are drawn per fold from the master seed, so every
    loss of a fold sees the same ones.  A candidate that diverges or meets
    bad data fails its whole cell, reported as a `FoldOutcome` carrying that
    candidate's settings (the first that diverges, in candidate order) and
    the error, and the remaining cells still run;
    any other exception is a bug and propagates.
    """
    if not cfgs:
        raise ValueError("need at least one loss config")
    for name, candidates in cfgs.items():
        if not candidates:
            raise ValueError(f"no candidate config for loss {name!r}")
        for cfg in candidates:
            if cfg.loss.name != name:
                raise ValueError(f"config key {name!r} does not match loss {cfg.loss.name!r}")
            if replace(cfg, lr=candidates[0].lr, dropout=candidates[0].dropout) != candidates[0]:
                raise ValueError(
                    f"candidates of loss {name!r} differ in more than lr and dropout: "
                    "a cell trains them as one grid"
                )
    if not 0.0 <= noise_p <= 1.0:
        raise ValueError(f"noise_p must lie in [0, 1], got {noise_p}")

    n_folds = len(plan.folds) if max_folds is None else min(max_folds, len(plan.folds))
    outcomes = []
    for fold_index in range(n_folds):
        outcomes += _fold_outcomes(
            model_kind, pool, plan, fold_index, cfgs, test, master_seed, noise_p, hidden
        )
    return outcomes
