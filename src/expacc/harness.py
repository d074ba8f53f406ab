"""Experiment engine: epoch loop, early stopping, replicated comparisons.

`train_run` trains one stack: grid points, each a (fold, loss, lr, dropout)
of one train size, along a leading axis of one network, stepped in lockstep
with one forward pass, loss call, backward pass and Adam step per minibatch.
Each point is a run of its own and returns its own outcome, bit-identical
to training it alone.  `replicate` runs every (fold, loss) cell of a
cross-validated comparison, for `expacc run` and `expacc gradnorms`, and is
the one place that picks a cell's result from its candidates' outcomes.
The README's "Replication semantics" sets out the pairing the analysis
needs, the splits as `Rows`, how points fill stacks and split over idle
cores, how a stack evaluates fold by fold, and the stacks training side by
side.
"""

from __future__ import annotations

import contextlib
import contextvars
import copy
import math
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (CountMismatchError, DataError, Dataset, EmptyDataError, Folds, Rows,
                   SplitPlan, inject_label_noise)
from .losses import KINDS, LossSpec, loss_grad_preact
from .models import DEFAULT_HIDDEN, build_model
from .numerics import Rng, _end_blas_workers, _openblas_threads, argmax_last
from .optim import Adam, minibatches

__all__ = [
    "FoldOutcome",
    "RunResult",
    "StackResult",
    "TrainConfig",
    "accuracy",
    "replicate",
    "should_stop",
    "train_run",
]

# Child-stream keys drawn from one run seed.
_INIT, _BATCH, _DROPOUT = 0, 1, 2
# Child-stream keys drawn from a master seed.
_NOISE_KEY, _RUN_KEY, _PLAN_KEY = 0, 1, 2
# Float64 values (1 MiB): the parameters of a stack of `replicate` (a larger
# point trains alone), the fewest floats a stack split over idle workers
# gathers per step, and the most dev or test rows x features, summed over
# its folds, whose copies a stack keeps for its life.
STACK_PARAMS = 2**17


class _Stopped(Exception):
    """A stack stopped because a stack beside it failed or the run was
    interrupted."""


# The event that stops the stacks `_train_stacks` trains side by side; None
# where a stack trains in the calling thread.
_stop = contextvars.ContextVar("expacc_stop", default=None)


def should_stop(epoch: int, best_epoch, max_epochs, min_epochs, patience):
    """Early-stopping decision of each point after `epoch` has completed,
    from (arrays of) its best epoch and its rule, an unset one `inf`.

    Hard stop at `max_epochs`.  The patience rule only arms once
    `min_epochs` have run, and its window is measured from the later of the
    best epoch and `min_epochs`, so a run with no improvement after epoch 1
    and min_epochs=100, patience=15 stops at epoch 115.
    """
    return (epoch >= max_epochs) | (
        (epoch >= min_epochs) & (epoch - np.maximum(best_epoch, min_epochs) >= patience)
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
class RunResult:
    """One point's run: its epochs, its best one and the test accuracy
    there, and `error`, the message of its failure, when it failed after
    the epochs it completed.  `records` has a float64 row per epoch, row
    `e - 1` for epoch `e`: train loss, train accuracy, dev accuracy and
    mean gradient norm.  A run that failed in its first epoch has no
    records, no best epoch (0) and a NaN test accuracy."""

    records: np.ndarray
    best_epoch: int
    test_acc: float
    error: str | None = None

    def __eq__(self, other):
        return (type(other) is RunResult and np.array_equal(self.records, other.records)
                and (self.best_epoch, self.test_acc, self.error)
                == (other.best_epoch, other.test_acc, other.error))

    @property
    def test_error(self) -> float:
        return 1.0 - self.test_acc

    @property
    def best_dev_acc(self) -> float:
        """Dev accuracy at the best epoch; NaN for a run that completed no
        epoch."""
        return self.records[self.best_epoch - 1, 2] if self.best_epoch else math.nan


@dataclass
class StackResult:
    """What one `train_run` returns: every point's run, in point order;
    `records`, the one block of every point's epochs, point-major, whose
    rows each run's `records` views; and the sum of their best epochs."""

    runs: list
    records: np.ndarray = field(compare=False)
    best_epoch: int


def accuracy(model, x, labels):
    """Argmax accuracy without dropout of features `x` against `labels`,
    rows all points share: a float, or one per point of a stacked model."""
    preact, _ = model.forward(x)
    return (argmax_last(preact) == labels).mean(axis=-1)


class _Evaluation:
    """Dev and test accuracy of a stack's points, one fold at a time.

    Points come fold by fold, so each fold's live points are one slice of
    the stack, and each slice runs one forward on its fold's rows, which
    all its points share.  `rows` finds or makes the copy of a fold's rows.
    The stack keeps every copy for its whole life when, summed over its
    folds, the larger split's rows x features fit in `STACK_PARAMS`;
    otherwise it drops its copies before it makes the next and at the end
    of each evaluation.  `parts` cuts the live points into their folds, and
    `accuracy` gives each point's accuracy on its own fold's dev or test
    rows, in the order of `parts`.
    """

    def __init__(self, folds, dev, test, d):
        self.splits = (dev, test)
        self.keep = max(sum(split[f].n for f in folds) for split in self.splits) * d <= STACK_PARAMS
        self.copies = {}  # id of each `Rows` copied -> (it, its features, its labels)

    def rows(self, rows: Rows) -> tuple:
        """The float features and labels of `rows`: the stack's copy of
        them, or of the same pool rows under other labels, or else a new
        copy through `Dataset.subset`."""
        if (held := self.copies.get(id(rows))) is None:
            same = [x for r, x, _ in self.copies.values()
                    if r.ds is rows.ds and np.array_equal(r.index, rows.index)]
            if not (same or self.keep):
                self.copies.clear()
            x = same[0] if same else rows.ds.subset(rows.index).features()
            held = self.copies[id(rows)] = rows, x, rows.labels.take(rows.index)
        return held[1:]

    @staticmethod
    def parts(model, fold_of) -> list:
        """The live points of `model`'s stack, of folds `fold_of`, by fold:
        (fold, a network of its points that views their parameters).  Valid
        until the stack's parameters are replaced."""
        cuts = [0, *(np.flatnonzero(np.diff(fold_of)) + 1).tolist(), fold_of.size]
        parts = []
        for lo, hi in zip(cuts, cuts[1:]):
            part = copy.copy(model)
            part.take(slice(lo, hi))
            parts.append((fold_of[lo], part))
        return parts

    def accuracy(self, parts, split: int) -> np.ndarray:
        """Each point's accuracy on its fold's rows of `split`: 0 dev, 1 test."""
        accs = [accuracy(part, *self.rows(self.splits[split][fold])) for fold, part in parts]
        if not self.keep:
            self.copies.clear()
        return np.concatenate(accs)


def _check_nonempty(*splits) -> None:
    for part, split in zip(("train", "dev", "test"), splits):
        if split.n == 0:
            raise EmptyDataError(f"{part} split is empty")


def train_run(
    model_kind: str,
    train: Folds,
    dev,
    test,
    cfg: TrainConfig,
    hidden=DEFAULT_HIDDEN,
    points=None,
    folds=None,
) -> StackResult:
    """Train a stack of points and evaluate each at its best early-stopping
    epoch on test.

    `points` lists the stack's TrainConfigs, by default `[cfg]`.  They share
    `cfg.batch_size`; each brings its own loss, lr, dropout, seed and
    stopping rule.  `folds` numbers each point's fold (default: all 0) in
    non-decreasing order.  `train` is the `Folds` of the stack's folds, and
    `dev` and `test` hold one `Rows` per fold.  Returns a `StackResult`
    with each point's `RunResult`, bit-identical to training that point
    alone.  The README's "Replication semantics" describes the stack: its
    random streams and minibatch orders, its one parameter block and its
    evaluation, fold by fold.

    Stopping, per point, is `should_stop`'s rule on the point's own
    `max_epochs`, `min_epochs` and `patience`.  Ties in dev accuracy keep
    the earliest epoch.

    A point fails, with a message as its `error`, at its first batch with
    a non-finite loss, or else when its Adam second moment is not all
    finite after an epoch's batches.  Its row rides along to the epoch's
    end, which comes at once when every live point has failed.  At the one
    exit after the batches, the points that did not fail record the epoch,
    one row each of the stack's block, and points leave: those that failed,
    keeping the epochs they completed, and those that stop.  A point that
    failed in its first epoch has no best epoch, and its test accuracy is
    NaN.  Points of another batch size or out of fold order raise
    ValueError, and an empty split EmptyDataError.  A stack that
    `_train_stacks` trains beside others ends at its next step once one of
    them fails or the run is interrupted.
    """
    points = [cfg] if points is None else list(points)
    fold_of = np.zeros(len(points), dtype=np.intp) if folds is None else np.asarray(folds)
    if any(p.batch_size != cfg.batch_size for p in points):
        raise ValueError(f"the points of a stack share one batch_size, {cfg.batch_size}")
    if (np.diff(fold_of) < 0).any():
        raise ValueError("the points of a stack come fold by fold")
    # distinct values in order by `dict.fromkeys`: `np.unique` imports numpy.ma
    stack_folds = list(dict.fromkeys(fold_of.tolist()))
    for f in stack_folds:
        _check_nonempty(train[f], dev[f], test[f])
    pool, n, batch_size = train[0].ds, train.n, cfg.batch_size
    model = build_model(
        model_kind, [Rng(p.seed).child(_INIT) for p in points], pool.d, pool.k, hidden,
        [p.dropout for p in points],
    )
    best = copy.deepcopy(model)  # each point's parameters at its best epoch
    keys = {}  # (fold, seed) -> its minibatch order
    order_of = np.array([keys.setdefault((f, p.seed), len(keys)) for f, p in zip(fold_of, points)])
    keys = list(keys)
    batch_rngs = [Rng(seed).child(_BATCH) for _, seed in keys]
    dropout_rngs = (
        [Rng(p.seed).child(_DROPOUT) for p in points] if any(p.dropout for p in points) else None
    )
    opt = Adam([p.lr for p in points])
    stop = _stop.get()
    coefs = np.array([p.loss.coefficients for p in points])  # each live point's loss
    # each point's max_epochs, min_epochs and patience, an unset one inf
    rules = np.array([(p.max_epochs or math.inf, p.min_epochs, p.patience or math.inf)
                      for p in points]).T
    evaluation = _Evaluation(stack_folds, dev, test, pool.d)

    live = np.arange(len(points))  # point index of each point in the stack
    parts = evaluation.parts(model, fold_of)
    recorded = []  # each epoch's (points still ok, their records)
    best_epoch = np.zeros(len(points), dtype=np.intp)
    best_dev = np.full(len(points), -math.inf)
    errors = [None] * len(points)
    order = np.empty((len(keys), n), dtype=np.intp)
    targets = np.empty((len(keys), n), dtype=np.int64)
    epoch = 0
    while live.size:
        epoch += 1
        ol = order_of[live]
        # each live order's pool rows and labels in this epoch's shuffled order
        for o in dict.fromkeys(ol.tolist()):
            fold = train[keys[o][0]]
            order[o] = fold.index.take(np.concatenate(minibatches(batch_rngs[o], n, batch_size)))
            targets[o] = fold.labels.take(order[o])
        loss_sum, hit_sum, norm_sum = np.zeros((3, live.size))
        ok = np.ones(live.size, dtype=bool)  # each live point: no failure yet this epoch
        for batch_no, lo in enumerate(range(0, n, batch_size)):
            if stop is not None and stop.is_set():
                raise _Stopped
            rows = order[ol, lo : lo + batch_size]
            xb = pool.features(rows)
            yb = targets[ol, lo : lo + batch_size]
            drops = None if dropout_rngs is None else [dropout_rngs[j] for j in live]
            preact, trace = model.forward(xb, drops)
            batch = loss_grad_preact(coefs, preact, yb)
            finite = np.isfinite(batch.mean_loss)
            if not finite.all():
                # a diverged point's row rides along, its own slice, to the exit
                for j in live[ok & ~finite]:
                    errors[j] = f"non-finite loss at epoch {epoch}, batch {batch_no}"
                ok &= finite
                if not ok.any():
                    break
            grad = model.backward(trace, batch.grad_preact)
            loss_sum += batch.mean_loss * rows.shape[-1]
            hit_sum += (argmax_last(preact) == yb).sum(axis=-1)
            norm_sum += batch.per_instance_norms.sum(axis=-1)
            opt.step(model.theta, grad)
        if opt.v is not None:  # None until the first step
            moment = np.isfinite(opt.v).all(axis=-1)
            for j in live[ok & ~moment]:
                errors[j] = f"non-finite Adam second moment at epoch {epoch}"
            ok &= moment

        # the one exit: failed points leave, and so do those that stop
        dev_acc = evaluation.accuracy(parts, 0)
        improved = ok & (dev_acc > best_dev[live])
        if improved.any():
            better = live[improved]
            best_dev[better] = dev_acc[improved]
            best_epoch[better] = epoch
            best.theta[better] = model.theta[improved]
        recorded.append((live[ok], np.column_stack(
            (loss_sum / n, hit_sum / n, dev_acc, norm_sum / n))[ok]))
        stays = ok & ~should_stop(epoch, best_epoch[live], *rules[:, live])
        if not stays.all():
            live, coefs = live[stays], coefs[stays]
            model.take(stays)
            opt.take(stays)
            if live.size:
                parts = evaluation.parts(model, fold_of[live])

    test_acc = evaluation.accuracy(evaluation.parts(best, fold_of), 1).tolist()
    # every point's epochs, point-major: a stable sort keeps each point's in order
    owner, records = (np.concatenate(c) for c in zip(*recorded))
    records = records[np.argsort(owner, kind="stable")]
    ends = np.cumsum(np.bincount(owner, minlength=len(points))).tolist()
    return StackResult([
        RunResult(records[lo:hi], at, test_acc[j] if at else math.nan,
                  errors[j] and f"{points[j].loss.name}: {errors[j]}")
        for j, (at, lo, hi) in enumerate(zip(best_epoch.tolist(), [0, *ends], ends))
    ], records, int(best_epoch.sum()))


@contextlib.contextmanager
def _one_blas_thread():
    """Pin numpy's OpenBLAS to one thread for the block and restore its
    count afterwards, also on error; pins nothing where no setter is
    found.  Each count change starts OpenBLAS's workers, which would spin
    idle, so both end them again (`numerics._end_blas_workers`): the block
    runs and leaves with none."""
    found = _openblas_threads()
    if found is None:
        yield
        return
    get, set_, _ = found
    before = get()
    set_(1)
    _end_blas_workers()
    try:
        yield
    finally:
        set_(before)
        _end_blas_workers()


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers() -> int:
    """The worker threads `_train_stacks` trains stacks on: one per usable
    core where numpy's OpenBLAS can be pinned to one thread, else 1."""
    return _usable_cores() if _openblas_threads() is not None else 1


def _train_stacks(jobs: list) -> list:
    """`train_run(*job)` of every stack, in stack order.

    Every stack trains with numpy's OpenBLAS pinned to one thread, so a
    matmul's bits depend on neither the core count nor the BLAS thread
    count.  They train side by side on one worker thread per usable core
    (at most one per stack; a stack is never split), or in the calling
    thread where that is one worker.  No OpenBLAS worker runs while they
    train, nor after (`_one_blas_thread`).  Where no OpenBLAS setter is
    found they train one at a time, at the BLAS default.

    Each worker runs in a copy of the caller's context, so numpy's error
    state holds there too.  When the wait for the stacks ends in an
    exception or an interrupt, the stacks not yet started are cancelled and
    the running ones stop at their next step.  An interrupt then
    propagates; otherwise the first exception in stack order, not counting
    the stops, propagates with its traceback.
    """
    with _one_blas_thread():
        workers = min(len(jobs), _workers())
        # in the calling thread: on a 2-vCPU host a pool thread raised the
        # one-stack logreg_uci_grid bench's peak RSS by 1.6-2.1 MB (10/10 pairs)
        if workers < 2:
            return [train_run(*job) for job in jobs]
        from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

        stop = threading.Event()
        pool = ThreadPoolExecutor(workers, thread_name_prefix="expacc-stack")
        try:
            futures = []
            for job in jobs:
                context = contextvars.copy_context()
                context.run(_stop.set, stop)
                futures.append(pool.submit(context.run, train_run, *job))
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            stop.set()  # every stack has ended, one has failed, or an interrupt came
            pool.shutdown(cancel_futures=True)
        for future in futures:
            error = None if future.cancelled() else future.exception()
            if error is not None and not isinstance(error, _Stopped):
                raise error
        return [future.result() for future in futures]


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


def replicate(
    model_kind: str,
    pool: Dataset,
    plan: SplitPlan,
    cfgs: list,
    *,
    test: Dataset | None = None,
    master_seed: int = 0,
    noise_p: float = 0.0,
    hidden=DEFAULT_HIDDEN,
    max_folds: int | None = None,
):
    """Run every fold of `plan` for every loss in `cfgs`: one `FoldOutcome`
    per (fold, loss), fold by fold.

    `cfgs` is the non-empty list of candidate TrainConfigs, sharing one
    `batch_size`.  A cell is a (fold, loss name): its candidates are that
    loss's configs in list order (one `LossSpec` per name), and the losses
    come in the order of their first config.  A cell keeps the candidate
    with the best dev accuracy, ties going to the earliest.  `noise_p` is
    the label-noise level of the training/development pool, drawn per fold
    from `master_seed`.  A candidate that diverges fails its cell, and bad
    data (an empty split) fails its fold's cells, each reported as a
    `FoldOutcome` with the failure's message and the settings of the
    candidate that failed (the first to diverge, in candidate order), while
    the remaining cells still run; any other exception is a bug and
    propagates.  Before any training, an empty or malformed `cfgs`, a
    candidate with a seed (each trains from its cell's seed) or a `noise_p`
    outside [0, 1] raises ValueError, and a `test` whose features or
    classes differ from `pool`'s CountMismatchError.
    The README's "Replication semantics" describes the seeds and noisy
    labels a fold's cells share, how the points fill `train_run` stacks and
    split over idle workers, and how `_train_stacks` trains the stacks.
    """
    by_loss = {}  # loss name -> its candidates, in list order
    for cfg in cfgs:
        by_loss.setdefault(cfg.loss.name, []).append(cfg)
    if not by_loss:
        raise ValueError("need at least one candidate config")
    specs = list(dict.fromkeys(cfg.loss for cfg in cfgs))
    if len(specs) > len(by_loss):
        raise ValueError(f"two losses share one name in {specs}")
    if len({cfg.batch_size for cfg in cfgs}) > 1:
        raise ValueError("candidates differ in batch_size: they train together in stacks")
    if any(cfg.seed for cfg in cfgs):
        raise ValueError("a candidate trains from its cell's seed: leave TrainConfig.seed at 0")
    if not 0.0 <= noise_p <= 1.0:
        raise ValueError(f"noise_p must lie in [0, 1], got {noise_p}")
    if test is not None and (test.d, test.k) != (pool.d, pool.k):
        raise CountMismatchError(f"test set {test.name!r} has {test.d} features and {test.k} "
                                 f"classes, but pool {pool.name!r} has {pool.d} and {pool.k}")

    n_folds = len(plan.folds) if max_folds is None else min(max_folds, len(plan.folds))
    master = Rng(master_seed)
    test_rows = None if test is None else Rows(test, np.arange(test.n))
    splits = {}  # fold -> its (train, dev, test) rows
    pieces = {}  # cell -> (candidate, its run), in candidate order
    for fold in range(n_folds):
        train_idx, dev_idx = plan.folds[fold]
        labels = inject_label_noise(master.child(_NOISE_KEY, fold), pool, noise_p)
        # No test set given: test on the plan's test part, or, in the 2-fold
        # convention, on the held-out half, which is both dev and test, with
        # its original (clean) labels.
        held_out = dev_idx if plan.test is None else plan.test
        fold_test = Rows(pool, held_out) if test_rows is None else test_rows
        fold_splits = (Rows(pool, train_idx, labels), Rows(pool, dev_idx, labels), fold_test)
        try:
            _check_nonempty(*fold_splits)
            splits[fold] = fold_splits
        except DataError as exc:  # fails each cell of the fold, named by its first candidate
            failed = RunResult(np.empty((0, 4)), 0, math.nan, str(exc))
            pieces.update({(fold, name): [(c[0], failed)] for name, c in by_loss.items()})
    # Every candidate of a (fold, loss) cell trains from the cell's one run
    # seed, keyed by the loss's canonical index, not list position, so the
    # order of the losses in cfgs cannot change any run.
    points = [
        (fold, name, replace(c, seed=master.child(_RUN_KEY, fold, KINDS.index(name)).seed))
        for fold in splits
        for name, candidates in by_loss.items()
        for c in candidates
    ]
    by_size = {}
    for point in points:
        by_size.setdefault(splits[point[0]][0].n, []).append(point)
    sizes = [pool.d, *(hidden if model_kind == "mlp" else ()), pool.k]
    room = max(1, STACK_PARAMS // sum((m + 1) * n for m, n in zip(sizes, sizes[1:])))
    # A size class fills as few stacks as hold it in `room`, of sizes that
    # differ by at most one.  While that leaves workers idle, it splits into
    # up to one stack per worker, each still gathering at least STACK_PARAMS
    # floats per step (points x batch rows x features).
    workers = _workers()
    fewest = -(-STACK_PARAMS // max(1, cfgs[0].batch_size * pool.d))
    packed = [-(-len(same_size) // room) for same_size in by_size.values()]
    idle = sum(packed) < workers
    stacks = []
    for same_size, count in zip(by_size.values(), packed):
        n = max(count, min(workers, len(same_size) // fewest)) if idle else count
        q, r = divmod(len(same_size), n)
        cuts = [i * q + min(i, r) for i in range(n + 1)]
        stacks += [same_size[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    jobs = []
    for stack in stacks:
        folds = list(dict.fromkeys(fold for fold, _, _ in stack))
        train, dev, tests = zip(*(splits[fold] for fold in folds))
        jobs.append((
            model_kind, Folds(train), dev, tests, stack[0][2], hidden,
            [c for _, _, c in stack], [folds.index(fold) for fold, _, _ in stack],
        ))
    for stack, result in zip(stacks, _train_stacks(jobs)):
        for (fold, name, candidate), run in zip(stack, result.runs):
            pieces.setdefault((fold, name), []).append((candidate, run))

    outcomes = []
    for fold in range(n_folds):
        for name in by_loss:
            # the first failure in candidate order fails the cell (the row
            # names that candidate); otherwise the best dev accuracy wins,
            # ties going to the earliest candidate
            cell = pieces[fold, name]
            failed = [p for p in cell if p[1].error]
            point, run = failed[0] if failed else max(cell, key=lambda p: p[1].best_dev_acc)
            outcomes.append(FoldOutcome(name, fold, point.lr, point.dropout,
                                        None if run.error else run, run.error))
    return outcomes
