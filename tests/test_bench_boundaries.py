"""The names the benchmark in `perfbench/` patches from outside the package.

`perfbench/tracer.py` wraps expacc functions and methods by name, and reads
`train_run`'s arguments by position and its result's `records` and
`best_epoch`.  A change in `src/` that breaks it fails here, in the test
suite, instead of only when the benchmark runs.
"""

import importlib
import importlib.util
import inspect
from dataclasses import replace
from collections import Counter
from pathlib import Path

import pytest

from expacc.data import Folds, Rows, make_folds
from expacc.harness import TrainConfig, train_run
from expacc.losses import LossSpec
from expacc.numerics import Rng
from helpers import one_fold, two_gaussians

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_boundary_resolves_to_a_callable(tracer):
    for owner_path, attr, name, _ in tracer.BOUNDARIES:
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        assert callable(getattr(owner, attr, None)), f"{owner_path}.{attr} ({name})"


def test_train_run_keeps_the_argument_order_the_benchmark_reads():
    params = list(inspect.signature(train_run).parameters)
    assert params[:5] == ["model_kind", "train", "dev", "test", "cfg"]


def test_the_step_count_of_a_grid_cell_is_its_points_steps(tracer):
    # the benchmark counts minibatch steps from one train_run's result as
    # epochs x batches; for a stacked grid that is the sum over its points
    ds = two_gaussians(3, 150, 4, delta=1.5)
    plan = make_folds(Rng(4), ds.n, "fixed", train_size=100, dev_size=25)
    cfg = TrainConfig(loss=LossSpec("leerr"), batch_size=32, max_epochs=20, patience=2)
    args = (
        "logreg", *one_fold(ds, *plan.folds[0], plan.test),
        cfg, (), [replace(cfg, lr=lr) for lr in (1e-3, 3e-2, 0.3)],
    )
    counts = Counter()
    result = train_run(*args)
    tracer._train_run_epochs(counts, args, {}, result)
    epochs = [len(run.records) for run in result.runs]
    assert len(set(epochs)) > 1
    assert counts["epochs"] == sum(epochs)
    assert counts["steps"] == sum(epochs) * 4  # ceil(100 / 32) batches per epoch
    assert counts["best_epochs"] == sum(run.best_epoch for run in result.runs)


def test_the_step_count_of_a_stack_across_folds_is_its_points_steps(tracer):
    # a stack of two folds' points: `args[1].n` is each point's train size,
    # and the steps are every point's epochs x batches per epoch
    ds = two_gaussians(5, 150, 4, delta=1.5)
    plan = make_folds(Rng(6), ds.n, "kfold", k=3)
    cfg = TrainConfig(loss=LossSpec("eerr"), batch_size=32, max_epochs=20, patience=2)
    labels = [ds.labels, Rng(7).integers(2, size=ds.n)]
    train = Folds(Rows(ds, plan.folds[f][0], labels[f]) for f in (0, 1))
    dev = [Rows(ds, plan.folds[f][1], labels[f]) for f in (0, 1)]
    test = [Rows(ds, plan.folds[f][1]) for f in (0, 1)]
    points = [replace(cfg, lr=lr, seed=fold) for fold in (0, 1) for lr in (1e-3, 3e-2, 0.3)]
    args = ("logreg", train, dev, test, cfg, (), points, [0, 0, 0, 1, 1, 1])
    counts = Counter()
    result = train_run(*args)
    tracer._train_run_epochs(counts, args, {}, result)
    epochs = [len(run.records) for run in result.runs]
    assert args[1].n == len(plan.folds[0][0]) == 100
    assert len(set(epochs)) > 1 and len(result.runs) == len(points)
    assert counts["epochs"] == sum(epochs)
    assert counts["steps"] == sum(epochs) * 4  # ceil(100 / 32) batches per epoch
    assert counts["best_epochs"] == sum(run.best_epoch for run in result.runs)
