"""Experiment engine: epoch loop, early stopping, replicated comparisons.

A single `train_run` trains one fold as one stack: every (loss, lr,
dropout) point of every (fold, loss) cell, stacked along a leading axis of
one network and stepped in lockstep.  The points of a loss form a group
with that cell's run seed, whose initialization, shuffles and dropout draws
they share.  Per epoch each group shuffles once; each minibatch step gathers
every group's rows and makes one forward pass, one loss call, one backward
pass and one Adam step for all live points.  Each point records its train
loss/accuracy, dev accuracy and mean pre-activation gradient norm per
epoch, and a point that stops early leaves the stack; a diverging point
fails its own group only.  At the end each point's best-dev-accuracy
parameters are measured on test with argmax predictions, and each group's
best point wins its cell.  Each point's numbers are bit-identical to
training it alone.

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
    "EpochRecord",
    "FoldOutcome",
    "RunResult",
    "StackResult",
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
class StackResult:
    """What one `train_run` returns: every point's run, in point order, and
    one verdict per group of points, in the order of the groups' first
    points.  A group's verdict is the index of its point with the best dev
    accuracy (ties go to the earliest point) or, when any of its points
    diverged, the `TrainingDiverged` of the first of them in point order.

    `best` and `winner` are the first group's (raising its divergence), so a
    one-group stack reads like its cell.  `records` and `best_epoch` add up
    over the stack: every epoch of every point, point-major, and the best
    epochs of the groups' winners.
    """

    runs: list
    verdicts: list

    @property
    def best(self) -> int:
        if isinstance(self.verdicts[0], TrainingDiverged):
            raise self.verdicts[0]
        return self.verdicts[0]

    @property
    def winner(self) -> RunResult:
        return self.runs[self.best]

    @property
    def records(self) -> list:
        return [r for run in self.runs for r in run.records]

    @property
    def best_epoch(self) -> int:
        return sum(
            self.runs[v].best_epoch for v in self.verdicts if not isinstance(v, TrainingDiverged)
        )


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
) -> StackResult:
    """Train a stack of points on one fold and evaluate each at its best
    early-stopping epoch on test.

    `points` lists the stack's TrainConfigs, by default `[cfg]`.  They share
    `cfg.batch_size`; each brings its own loss, lr, dropout, seed and
    stopping rule.  Points with the same loss and seed form a group, and a
    group's random streams are the ones a run of its own from that seed
    draws: one initialization, one minibatch permutation per epoch and one
    dropout draw per layer per step, shared by its points.  The stack trains
    in lockstep, so per step there is one gather of each group's rows (each
    point gets its group's features and labels), one forward pass, one
    `loss_grad_preact` call, one backward pass and one Adam step for all the
    points, and each point's slice gets the bits its own run would.

    Each minibatch gathers its rows of `train.ds` through `train.index`
    (`take`, the same rows and bits as fancy indexing, with less overhead
    per call), so the training split is never copied whole, and only those
    rows are scaled to float features (`Dataset.features`).

    Stopping, per point: always at `max_epochs` when set; additionally once
    at least `min_epochs` have run and `patience` epochs have passed without
    a dev improvement (the patience window starts counting at
    `min_epochs`).  Ties in dev accuracy keep the earliest epoch.  A point
    that stops leaves the stack and is no longer stepped.

    A non-finite loss fails the point's group, with a `TrainingDiverged` for
    the group's first point, in point order, that diverges, as training the
    group's points one by one in order would: the group's points after it
    leave the stack at once, and the ones before it train on until they stop
    or diverge themselves.  The other groups train on.
    """
    points = [cfg] if points is None else list(points)
    if any(p.batch_size != cfg.batch_size for p in points):
        raise ValueError(f"the points of a stack share one batch_size, {cfg.batch_size}")
    for part, ds in (("train", train), ("dev", dev), ("test", test)):
        if ds.n == 0:
            raise EmptyDataError(f"{part} split is empty")
    keys = list(dict.fromkeys((p.loss, p.seed) for p in points))
    group_of = np.array([keys.index((p.loss, p.seed)) for p in points])
    roots = [Rng(seed) for _, seed in keys]
    model = build_model(
        model_kind, [r.child(_INIT) for r in roots], train.d, train.k, hidden,
        [p.dropout for p in points], group_of,
    )
    best = copy.deepcopy(model)  # each point's parameters at its best epoch
    batch_rngs = [r.child(_BATCH) for r in roots]
    dropout_rngs = [r.child(_DROPOUT) for r in roots]
    opt = Adam([p.lr for p in points])
    labels, index = train.labels, train.index

    live = np.arange(len(points))  # point index of each point in the stack
    records = [[] for _ in points]
    best_epoch = [0] * len(points)
    best_dev = [-math.inf] * len(points)
    failures = {}  # group -> its TrainingDiverged
    epoch = 0
    while live.size:
        epoch += 1
        # the live groups, in the order model.groups numbers them
        groups = np.unique(group_of[live])
        specs = [points[j].loss for j in live]
        batches = {g: minibatches(batch_rngs[g], train.n, cfg.batch_size) for g in groups}
        loss_sum = np.zeros(live.size)
        hit_sum = np.zeros(live.size)
        norm_sum = np.zeros(live.size)
        for batch_no in range(len(batches[groups[0]])):
            # each group's rows, then each point's: its group's
            rows = index.take(np.stack([batches[g][batch_no] for g in groups])[model.groups])
            xb = train.ds.features(rows)
            yb = labels.take(rows)
            preact, trace = model.forward(xb, [dropout_rngs[g] for g in groups])
            batch = loss_grad_preact(specs, preact, yb)
            grads = model.backward(trace, batch.grad_preact)
            loss_sum += batch.mean_loss * rows.shape[-1]
            hit_sum += (preact.argmax(axis=-1) == yb).sum(axis=-1)
            norm_sum += batch.per_instance_norms.sum(axis=-1)
            bad = ~np.isfinite(batch.mean_loss)
            if bad.any():
                keep = np.ones(live.size, dtype=bool)
                for g in np.unique(group_of[live[bad]]):
                    first = int(live[bad & (group_of[live] == g)][0])
                    failures[g] = TrainingDiverged(
                        f"{points[first].loss.name}: non-finite loss at epoch {epoch}, "
                        f"batch {batch_no}",
                        first,
                    )
                    keep &= (group_of[live] != g) | (live < first)
                live, loss_sum, hit_sum, norm_sum = (
                    a[keep] for a in (live, loss_sum, hit_sum, norm_sum)
                )
                grads = [g[keep] for g in grads]
                model.take(keep)
                opt.take(keep)
                if not live.size:
                    break
                groups = np.unique(group_of[live])
                specs = [points[j].loss for j in live]
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
            stopped[j] = should_stop(epoch, best_epoch[point], points[point])
        if stopped.any():
            live = live[~stopped]
            model.take(~stopped)
            opt.take(~stopped)

    test_acc = accuracy(best, test)
    runs = [
        RunResult(records[j], best_epoch[j], 1.0 - float(test_acc[j]), float(test_acc[j]))
        for j in range(len(points))
    ]
    verdicts = []
    for g in range(len(keys)):
        members = np.flatnonzero(group_of == g)
        won = int(members[np.argmax([best_dev[j] for j in members])])
        verdicts.append(failures.get(g, won))
    return StackResult(runs, verdicts)


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
    """Train every (loss, candidate) point of one fold in one stack, on data
    built once for them all.

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
    # Each loss's points form one group with one run seed, keyed by the
    # loss's canonical index, not dict position, so reordering cfgs cannot
    # change any run.
    master = Rng(master_seed)
    points = [
        replace(c, seed=master.child(_RUN_KEY, fold_index, KINDS.index(c.loss.kind)).seed)
        for candidates in cfgs.values()
        for c in candidates
    ]
    try:
        stack = train_run(model_kind, train, dev, test, points[0], hidden, points)
        verdicts = stack.verdicts
    except DataError as exc:  # bad data fails every cell before any point trains
        verdicts = [exc] * len(cfgs)
    outcomes = []
    for (name, candidates), verdict in zip(cfgs.items(), verdicts):
        # expected failures are data: the row names the candidate that failed
        if isinstance(verdict, TrainingDiverged):
            point, result, error = points[verdict.point], None, str(verdict)
        elif isinstance(verdict, DataError):
            point, result, error = candidates[0], None, str(verdict)
        else:
            point, result, error = points[verdict], stack.runs[verdict], None
        outcomes.append(FoldOutcome(name, fold_index, point.lr, point.dropout, result, error))
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
    for that loss (each one's `loss` must be the key's; all candidates of
    all losses may differ only in `loss`, `lr` and `dropout`).  Every
    candidate of every loss of a fold trains in one stacked `train_run`;
    the candidates of a (fold, loss) cell train from that cell's one run
    seed, and the cell keeps the one with the best dev accuracy, ties going
    to the earliest.
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
    base = next(iter(cfgs.values()))[0]
    for name, candidates in cfgs.items():
        for cfg in candidates:
            if cfg.loss.name != name or cfg.loss != candidates[0].loss:
                raise ValueError(f"config key {name!r} does not match loss {cfg.loss!r}")
            if replace(cfg, loss=base.loss, lr=base.lr, dropout=base.dropout) != base:
                raise ValueError(
                    "candidates differ in more than loss, lr and dropout: "
                    "a fold trains them all as one stack"
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
