import math
import os
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import expacc.harness
import expacc.optim
from expacc.data import CountMismatchError, Dataset, Folds, SplitPlan, make_folds
from expacc.harness import TrainConfig, replicate, should_stop, train_run
from expacc.losses import LossSpec, loss_grad_preact
from expacc.models import build_model
from expacc.numerics import Rng
from helpers import blobs, one_fold, two_gaussians
from reference import replicate as reference

NEGLOG, EERR, LEERR = LossSpec("neglog"), LossSpec("eerr"), LossSpec("leerr")


def small_splits(seed=0, n=120, d=4):
    ds = two_gaussians(seed, n, d, delta=2.0)
    plan = make_folds(Rng(seed + 1), n, "fixed", train_size=60, dev_size=30)
    return one_fold(ds, *plan.folds[0], plan.test)


def test_config_validation():
    with pytest.raises(ValueError, match="stopping rule"):
        TrainConfig(loss=NEGLOG)
    with pytest.raises(ValueError, match="min_epochs"):
        TrainConfig(loss=NEGLOG, min_epochs=10, max_epochs=5)
    with pytest.raises(ValueError, match="patience"):
        TrainConfig(loss=NEGLOG, patience=0)
    with pytest.raises(ValueError, match="dropout"):
        TrainConfig(loss=NEGLOG, max_epochs=1, dropout=1.0)
    for lr in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="lr must be finite"):
            TrainConfig(loss=NEGLOG, max_epochs=1, lr=lr)


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


def test_a_run_that_diverged_in_its_first_epoch_has_no_accuracy(monkeypatch):
    # every train row overflows at lr 10, so the loss is non-finite in the
    # first epoch: no epoch completed, no weights were kept, nothing to test.
    # With no live point left, the epoch ends at its bad batch
    calls, loss = [], expacc.harness.loss_grad_preact
    monkeypatch.setattr(expacc.harness, "loss_grad_preact",
                        lambda *args: calls.append(1) or loss(*args))
    train, dev, test = small_splits(5)
    train[0].ds.x[train[0].index, 0] = 1e308
    cfg = TrainConfig(loss=NEGLOG, lr=10.0, batch_size=8, max_epochs=5, seed=1)
    with np.errstate(all="ignore"):
        run = train_run("logreg", train, dev, test, cfg).runs[0]
    batch = int(str(run.error).rpartition("epoch 1, batch ")[2])
    assert 0 < batch < train.n // cfg.batch_size - 1 and len(calls) == batch + 1
    assert run.records == [] and run.best_epoch == 0
    assert math.isnan(run.best_dev_acc)
    assert math.isnan(run.test_acc) and math.isnan(run.test_error)


@pytest.mark.bits
def test_an_overflowing_adam_second_moment_fails_the_cell():
    # features near 1e300 keep the loss finite, but their squared gradients
    # overflow Adam's second moment: every later step of those weights would
    # be 0, and the cell would read ok with weights that never moved
    ds = two_gaussians(5, 120, 4, delta=2.0)
    ds.x *= 1e300
    plan = make_folds(Rng(6), ds.n, "fixed", train_size=60, dev_size=30)
    cfgs = [TrainConfig(loss=NEGLOG, lr=0.1, batch_size=8, max_epochs=8)]
    with np.errstate(all="ignore"):
        (cell,) = replicate("logreg", ds, plan, cfgs, master_seed=3)
    assert (cell.ok, cell.result) == (False, None)
    assert cell.error == "neglog: non-finite Adam second moment at epoch 1"


def test_mlp_trains_on_blobs():
    ds = blobs(10, 400, d=6, k=3, spread=3.0)
    plan = make_folds(Rng(11), ds.n, "fixed", train_size=250, dev_size=75)
    cfg = TrainConfig(loss=LEERR, lr=1e-2, batch_size=32, max_epochs=30, dropout=0.1, seed=2)
    result = train_run("mlp", *one_fold(ds, *plan.folds[0], plan.test), cfg, hidden=(16, 12, 8))
    assert result.runs[0].test_acc > 0.8


def comparable(records, best_epoch, test_acc, error):
    """A point's run, with a NaN test accuracy (no best epoch) as None so that runs that agree
    compare equal."""
    return records, best_epoch, None if math.isnan(test_acc) else test_acc, error


def as_reference(run):
    """A `RunResult` in the reference's form, comparable."""
    return comparable([astuple(r) for r in run.records], run.best_epoch, run.test_acc, run.error)


SCHEMES = {"kfold": {"k": 3}, "five_by_two": {}, "fixed": {"train_size": 16, "dev_size": 8}}
RULE = st.tuples(  # max_epochs, min_epochs, patience
    st.none() | st.integers(1, 6), st.integers(0, 4), st.none() | st.integers(1, 3)
).filter(lambda rule: rule[0] or rule[2])


@pytest.mark.bits
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.tuples(
    st.sampled_from(["logreg", "mlp"]), st.sampled_from([(), (3,)]),  # kind, hidden
    st.integers(2, 4), st.integers(2, 4), st.integers(24, 40),  # k, d, n
    st.sampled_from([1.7e308, 1.0, 1.2e308]),  # scale: the largest feature, some products overflow
    st.sampled_from([None, 1e306, 1e308]),  # spike: one pool value, overflowing once weights move
    st.sampled_from(list(SCHEMES)), st.integers(1, 3),  # scheme, max_folds
    st.lists(st.sampled_from([NEGLOG, EERR, LEERR, LossSpec("leerr", 0.3)]),
             min_size=1, max_size=3, unique_by=lambda spec: spec.kind),  # losses
    st.lists(st.sampled_from([1e-3, 3e-2, 0.3]), min_size=1, max_size=2, unique=True),  # lrs
    st.lists(st.sampled_from([0.3, 0.0]), min_size=1, max_size=2, unique=True),  # dropouts
    st.integers(3, 16),  # batch size
    st.lists(RULE, min_size=2, max_size=2),  # each lr's stopping rule
    st.sampled_from([0.0, 0.2]), st.booleans(),  # noise_p, external
), st.just(""))  # the cases an example is written to reach
# a divergence in a stack of eight points on two stopping rules that splits in two; groups of two
@example(("logreg", (), 2, 2, 26, 1.7e308, None, "five_by_two", 2, [NEGLOG, EERR], [1e-3, 0.3],
         [0.0], 9, [(4, 0, None), (None, 2, 1)], 0.2, False), "diverge group split side")
# three folds in one evaluation group; the better lr stops on patience after min_epochs
@example(("logreg", (), 3, 3, 36, 1.0, None, "kfold", 3, [NEGLOG, LEERR], [1e-3, 3e-2], [0.0], 7,
         [(2, 0, None), (8, 4, 1)], 0.0, True), "group side")
# two eight-point dropout stacks (train sizes 20 and 21) side by side, each lr on its own rule
@example(("mlp", (3,), 3, 3, 31, 1.0, None, "kfold", 2, [EERR, NEGLOG], [3e-2, 0.3], [0.0, 0.3], 5,
         [(4, 1, 2), (6, 0, None)], 0.2, False), "side")
# features near 1e300 overflow neglog's squared gradients in Adam's second moment, not its loss
@example(("logreg", (), 2, 4, 24, 1e300, None, "fixed", 1, [NEGLOG, EERR], [0.1, 1e-3], [0.0], 5,
         [(8, 0, None), (8, 0, None)], 0.0, False), "moment diverge")
# a spike fails lr 0.3 on its Adam second moment at epoch 3; lr 1e-3, later in its cell, trains on
@example(("logreg", (), 2, 3, 33, 1.0, 1e308, "five_by_two", 1, [NEGLOG], [0.3, 1e-3], [0.0], 13,
         [(4, 1, 2), (None, 4, 2)], 0.2, True), "late later")
# a dropout MLP stack on a spike of 1e306: neglog lr 0.3 fails in epoch 1, and lr 1e-3 trains
# on to its own failure at epoch 3
@example(("mlp", (3,), 4, 2, 27, 1.0, 1e306, "fixed", 1, [EERR, NEGLOG], [0.3, 1e-3], [0.3], 9,
         [(4, 3, 3), (6, 3, 3)], 0.2, False), "late later")
def test_every_replicate_cell_is_the_reference_run(params, covers):
    # whole stacks on one core; on three, a stack per train size (budget `whole`) that splits;
    # one-point stacks side by side on two: every point's run, failed or not, and every cell
    # are the plain reference's
    (kind, hidden, k, d, n, scale, spike, scheme, max_folds, losses, lrs, dropouts, batch, rules,
     noise_p, external) = params
    if kind == "logreg":
        hidden, dropouts = (), (0.0,)
    ds = blobs(n, n + 8, d, k, spread=2.0)
    x = ds.x * (scale / np.abs(ds.x).max())
    if spike is not None:
        x[0, 0] = spike
    pool = Dataset(x[:n], ds.labels[:n], k, "pool")
    plan = make_folds(Rng(n), n, scheme, **SCHEMES[scheme])
    trains = [train.size for train, _ in plan.folds[:max_folds]]
    assume(any(size % batch for size in trains))  # a short last batch
    cfgs = [TrainConfig(loss=spec, lr=lr, dropout=dropout, batch_size=batch, patience=patience,
                        max_epochs=max_epochs, min_epochs=min(min_epochs, max_epochs or 9))
            for spec in losses for lr, (max_epochs, min_epochs, patience) in zip(lrs, rules)
            for dropout in dropouts]
    keywords = dict(test=Dataset(x[n:], ds.labels[n:], k, "test") if external else None,
                    master_seed=n, noise_p=noise_p, hidden=hidden, max_folds=max_folds)
    whole = sum((m + 1) * w for m, w in zip([d, *hidden], [*hidden, k])) * len(cfgs) * len(trains)
    held, ways = expacc.harness._Evaluation._held, []  # each way's stacks and multi-fold groups
    with np.errstate(all="ignore"):
        expected, runs = reference(kind, pool, plan, cfgs, **keywords)
        runs = {key: comparable(*run) for key, run in runs.items()}
        for cpus, budget in ((1, expacc.harness.STACK_PARAMS), (3, whole), (2, 1)):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
                patch.setattr(expacc.harness, "STACK_PARAMS", budget)
                stacks, groups = recording_stacks(patch), []
                patch.setattr(expacc.harness._Evaluation, "_held",
                              lambda ev, folds: groups.append(folds) or held(ev, folds))
                cells = replicate(kind, pool, plan, cfgs, **keywords)
            ours = [(astuple(p), as_reference(run))
                    for _, result, points in stacks for p, run in zip(points, result.runs)]
            assert len(ours) == len(runs) and dict(ours) == runs
            assert [(c.loss, c.fold, c.lr, c.dropout, c.result and as_reference(c.result), c.error)
                    for c in cells] == expected
            ways.append((stacks, groups))
    (packed, groups), (split, _), (side, _) = ways
    later = [  # a later candidate of a failed point's cell that trains past the failure
        q for _, result, points in packed for i, (p, run) in enumerate(zip(points, result.runs))
        if run.error for q, other in zip(points[i + 1 :], result.runs[i + 1 :])
        if (q.seed, q.loss) == (p.seed, p.loss) and len(other.records) > len(run.records)
    ]
    reached = {"group": groups != [], "split": len(split) > len(packed), "side": len(side) > 1,
               "diverge": any(len(r.runs) > 1 and any(p.error for p in r.runs)
                              for _, r, _ in packed),
               "moment": any("second moment" in (cell[-1] or "") for cell in expected),
               "late": any(run[0] and run[3] for run in runs.values()),
               "later": any(kind == "logreg" or q.dropout for q in later)}
    assert [case for case in covers.split() if not reached[case]] == []


def test_a_diverging_loss_fails_only_its_own_cells():
    # neglog's loss at lr 1.0 goes non-finite at epoch 1, but lr 0.1 comes
    # first in candidate order and overflows its Adam second moment there;
    # eerr trains on as if alone, and the neglog row names lr 0.1 with the
    # error of its own run
    ds = two_gaussians(5, 120, 4, delta=2.0)
    plan = make_folds(Rng(6), ds.n, "fixed", train_size=60, dev_size=30)
    ds.x[plan.folds[0][0][0], 0] = 1e308  # overflows once lr moves the weights far enough

    def cfgs(spec, lrs):
        return [TrainConfig(loss=spec, lr=lr, batch_size=8, max_epochs=30) for lr in lrs]

    with np.errstate(all="ignore"):
        neglog, eerr = replicate(
            "logreg", ds, plan, cfgs(NEGLOG, (0.1, 0.5, 1.0)) + cfgs(EERR, (1e-3, 1e-2)),
            master_seed=3,
        )
        eerr_alone = replicate("logreg", ds, plan, cfgs(EERR, (1e-3, 1e-2)), master_seed=3)[0]
        alone = {
            lr: replicate("logreg", ds, plan, cfgs(NEGLOG, (lr,)), master_seed=3)[0]
            for lr in (0.1, 1.0)
        }
    assert alone[1.0].error == "neglog: non-finite loss at epoch 1, batch 3"
    assert (neglog.ok, neglog.lr, neglog.error) == (False, 0.1, alone[0.1].error)
    assert neglog.error == "neglog: non-finite Adam second moment at epoch 1"
    assert eerr.ok and eerr == eerr_alone


def test_a_stack_takes_its_points_fold_by_fold():
    # each fold's points must be one slice of the stack
    train, dev, test = small_splits(7)
    cfg = TrainConfig(loss=NEGLOG, batch_size=16, max_epochs=1)
    with pytest.raises(ValueError, match="fold by fold"):
        train_run("logreg", Folds(train * 2), dev * 2, test * 2, cfg,
                  points=[cfg, cfg, cfg], folds=[0, 1, 0])


def test_stopped_points_leave_the_stack(monkeypatch):
    # the stack steps each point exactly as often as its own run would
    sizes = []
    step = expacc.optim.Adam.step

    def recording(opt, theta, grad):
        sizes.append(theta.shape[0])
        return step(opt, theta, grad)

    monkeypatch.setattr(expacc.optim.Adam, "step", recording)
    ds = blobs(33, 300, d=6, k=3, spread=2.0)
    plan = make_folds(Rng(34), ds.n, "fixed", train_size=200, dev_size=50)
    train, dev, test = one_fold(ds, *plan.folds[0], plan.test)
    cfg = TrainConfig(loss=LEERR, batch_size=16, max_epochs=25, patience=3, seed=8)
    points = [replace(cfg, lr=lr) for lr in (1e-3, 3e-2, 0.3)]
    cell = train_run("logreg", train, dev, test, cfg, points=points)
    batches = -(-train.n // cfg.batch_size)
    epochs = [len(run.records) for run in cell.runs]
    assert len(set(epochs)) > 1
    assert sum(sizes) == sum(epochs) * batches
    assert len(sizes) == max(epochs) * batches


def test_dev_accuracy_ties_go_to_the_earliest_point(monkeypatch):
    stacks = recording_stacks(monkeypatch)
    ds = two_gaussians(6, 120, 4, delta=2.0)
    plan = make_folds(Rng(7), ds.n, "fixed", train_size=60, dev_size=30)
    # lr 0 and a vanishing lr leave the model where it started: equal dev
    # accuracy, whichever candidate comes first wins its cell
    for lrs in ((0.0, 1e-12), (1e-12, 0.0)):
        cfgs = [TrainConfig(loss=EERR, lr=lr, batch_size=16, max_epochs=4) for lr in lrs]
        (cell,) = replicate("logreg", ds, plan, cfgs, master_seed=2)
        first, second = stacks[-1][1].runs
        assert first.best_dev_acc == second.best_dev_acc
        assert first.records != second.records
        assert (cell.lr, cell.result) == (lrs[0], first)


def test_grad_norm_ordering_and_scale_at_init():
    # at a fresh initialization the eerr norm is the neglog norm damped by
    # p_r, so their ratio is roughly the class count
    ds = blobs(12, 2000, d=100, k=10, spread=0.3)
    preact, _ = build_model("logreg", Rng(13), ds.d, ds.k).forward(ds.x)
    norms = {
        spec.name: loss_grad_preact(spec, preact, ds.labels).per_instance_norms.mean()
        for spec in (NEGLOG, EERR, LEERR)
    }
    assert norms["eerr"] <= norms["neglog"]
    assert norms["neglog"] / norms["eerr"] >= 5.0
    # leerr = eerr + alpha*neglog componentwise, so its norm is bounded by the sum
    assert norms["leerr"] <= norms["eerr"] + 0.1 * norms["neglog"] + 1e-12


def test_grad_norms_vanish_when_perfectly_classified():
    ds = blobs(14, 50, d=4, k=3, spread=1.0)
    # huge correct-class scores: p_r ~ 1 for every instance
    preact = np.zeros((ds.n, ds.k))
    preact[np.arange(ds.n), ds.labels] = 500.0
    for spec in (NEGLOG, EERR, LEERR):
        assert loss_grad_preact(spec, preact, ds.labels).per_instance_norms.mean() < 1e-12


def test_replicate_pairing_and_order_independence():
    ds = two_gaussians(20, 200, 4, delta=1.5)
    plan = make_folds(Rng(21), ds.n, "five_by_two")

    def run(*points):
        cfgs = [TrainConfig(loss=spec, lr=lr, batch_size=32, max_epochs=10) for spec, lr in points]
        return replicate("logreg", ds, plan, cfgs, master_seed=5, noise_p=0.1)

    forward = run((NEGLOG, 1e-2), (NEGLOG, 0.1), (EERR, 1e-2), (EERR, 0.1))
    backward = run((EERR, 1e-2), (EERR, 0.1), (NEGLOG, 1e-2), (NEGLOG, 0.1))
    # a loss's candidates are its configs in list order, wherever they stand
    # in the list; the losses come in the order of their first config
    interleaved = run((NEGLOG, 1e-2), (EERR, 1e-2), (NEGLOG, 0.1), (EERR, 0.1))
    assert interleaved == forward
    key = lambda o: (o.loss, o.fold)
    fw = {key(o): o.result.test_error for o in forward}
    bw = {key(o): o.result.test_error for o in backward}
    assert fw == bw
    assert len(fw) == 20
    assert [o.loss for o in backward[:2]] == ["eerr", "neglog"]


def test_candidates_may_differ_in_their_stopping_rule(monkeypatch):
    # a loss's candidates share a stack, each training to its own stop; a budget
    # of six 10-parameter points on one core trains each fold's six as one stack
    ds = two_gaussians(44, 120, 4, delta=2.0)
    plan = make_folds(Rng(45), ds.n, "kfold", k=3)
    cfgs = [
        TrainConfig(loss=spec, lr=lr, batch_size=16, max_epochs=max_epochs, patience=patience)
        for spec in (NEGLOG, EERR)
        for lr, max_epochs, patience in ((1e-2, 3, None), (0.1, 12, 2), (0.3, None, 4))
    ]
    stacks = recording_stacks(monkeypatch)
    packed = replicate("logreg", ds, plan, cfgs, master_seed=6)
    assert [list(folds) for folds, *_ in stacks] == [[0] * 6 + [1] * 6 + [2] * 6]
    monkeypatch.setattr(expacc.harness, "STACK_PARAMS", 6 * 10)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    by_fold = replicate("logreg", ds, plan, cfgs, master_seed=6)
    assert [list(folds) for folds, *_ in stacks[1:]] == [[0] * 6] * 3
    assert all(o.ok for o in packed)
    assert packed == by_fold
    assert len({len(o.result.records) for o in packed}) > 1


def test_replicate_tuning_grid_selects_by_dev_accuracy():
    ds = two_gaussians(24, 240, 4, delta=2.0)
    plan = make_folds(Rng(25), ds.n, "fixed", train_size=150, dev_size=60)
    cfgs = [TrainConfig(loss=NEGLOG, lr=lr, batch_size=32, max_epochs=15) for lr in (1e-9, 5e-2)]
    out = replicate("logreg", ds, plan, cfgs, master_seed=2)
    assert len(out) == 1
    # the tiny lr leaves the model at its random initialization; the grid
    # search must pick the useful one
    assert out[0].lr == 5e-2


def test_replicate_builds_each_fold_once_for_every_loss_and_candidate(monkeypatch):
    noisy = []
    inject = expacc.harness.inject_label_noise

    def recording_inject(rng, ds, p):
        noisy.append(inject(rng, ds, p))
        return noisy[-1]

    copies = []
    subset = Dataset.subset

    def counting_subset(ds, indices):
        copies.append(len(indices))
        return subset(ds, indices)

    stacks = []
    train_run = expacc.harness.train_run

    def recording_train_run(model_kind, train, dev, test, cfg, hidden, points, folds):
        stacks.append((train, dev, test, points, folds))
        return train_run(model_kind, train, dev, test, cfg, hidden, points, folds)

    monkeypatch.setattr(expacc.harness, "inject_label_noise", recording_inject)
    monkeypatch.setattr(Dataset, "subset", counting_subset)
    monkeypatch.setattr(expacc.harness, "train_run", recording_train_run)
    ds = two_gaussians(22, 120, 3, delta=2.0)
    plan = make_folds(Rng(23), ds.n, "kfold", k=3)
    cfgs = [
        TrainConfig(loss=spec, lr=lr, max_epochs=2)
        for spec in (NEGLOG, EERR)
        for lr in (1e-2, 1e-1)
    ]
    out = replicate("logreg", ds, plan, cfgs, noise_p=0.1, max_folds=2)
    assert [(o.fold, o.loss) for o in out] == [
        (0, "neglog"), (0, "eerr"), (1, "neglog"), (1, "eerr")
    ]
    assert len(noisy) == 2
    # dev and test name pool rows; the two small folds evaluate as one group,
    # which copies each fold's 40 dev rows once per stack, and with no test
    # set, test is those rows under clean labels, sharing the copy
    assert copies == [40] * 2
    # both folds train 80 rows, so one train_run stacks both losses and both
    # lrs of both folds, fold by fold
    assert len(stacks) == 1
    train, dev, test, points, folds = stacks[0]
    assert folds == [0] * 4 + [1] * 4
    assert [(p.loss, p.lr) for p in points] == 2 * [
        (spec, lr) for spec in (NEGLOG, EERR) for lr in (1e-2, 1e-1)
    ]
    for fold in (0, 1):
        labels, dev_idx = noisy[fold], plan.folds[fold][1]
        assert train[fold].ds is ds and train[fold].labels is not ds.labels
        assert np.array_equal(train[fold].labels, labels)
        assert np.array_equal(train[fold].index, plan.folds[fold][0])
        # dev doubles as test: its rows under noisy labels for early stopping
        # and clean ones for the test measurement
        assert dev[fold].ds is test[fold].ds is ds
        assert np.array_equal(dev[fold].index, dev_idx)
        assert np.array_equal(test[fold].index, dev_idx)
        assert np.array_equal(dev[fold].labels, labels)
        assert test[fold].labels is ds.labels


def test_replicate_tests_every_fold_on_one_rows_of_the_external_test_set(monkeypatch):
    tests, train_run = [], expacc.harness.train_run  # its args[3]: each fold's test rows
    monkeypatch.setattr(expacc.harness, "train_run",
                        lambda *args: tests.extend(args[3]) or train_run(*args))
    copies, subset = [], Dataset.subset
    monkeypatch.setattr(Dataset, "subset",
                        lambda ds, index: copies.append(len(index)) or subset(ds, index))
    ds = two_gaussians(41, 120, 3, delta=2.0)
    test = two_gaussians(42, 50, 3, delta=2.0, name="test")
    plan = make_folds(Rng(43), ds.n, "kfold", k=3)
    cfgs = [TrainConfig(loss=NEGLOG, lr=1e-2, batch_size=16, max_epochs=2)]
    out = replicate("logreg", ds, plan, cfgs, test=test, noise_p=0.2)
    assert all(o.ok for o in out) and len(tests) == 3
    assert copies == [40] * 3 + [50] * 3  # one group: each fold's dev and test rows, once
    # the test set is wrapped once, whole and under its own clean labels
    assert all(t is tests[0] for t in tests)
    assert tests[0].ds is test and tests[0].labels is test.labels
    assert np.array_equal(tests[0].index, np.arange(test.n))
    monkeypatch.setattr(expacc.harness, "STACK_PARAMS", 1)  # a group per fold copies per evaluation
    replicate("logreg", ds, plan, cfgs, test=test, noise_p=0.2)
    assert len(copies) > 12


def recording_stacks(monkeypatch):
    """Patch `train_run` to record each stack's points' folds, its result and its points."""
    stacks = []
    train_run = expacc.harness.train_run

    def recording(model_kind, train, dev, test, cfg, hidden, points, folds):
        result = train_run(model_kind, train, dev, test, cfg, hidden, points, folds)
        stacks.append((folds, result, points))
        return result

    monkeypatch.setattr(expacc.harness, "train_run", recording)
    return stacks


def test_a_diverging_point_fails_only_its_own_fold_cell(monkeypatch):
    # three folds of equal train size in one stack; one row near the float64
    # limit lies in fold 1's train split only, and overflows neglog's loss at
    # lr 1 and its Adam second moment at lr 0.1
    ds = two_gaussians(37, 120, 4, delta=2.0)
    perm = Rng(38).permutation(ds.n)
    folds = [(perm[40 * i : 40 * i + 30], perm[40 * i + 30 : 40 * i + 40]) for i in range(3)]
    plan = SplitPlan(folds)
    cfgs = [
        TrainConfig(loss=spec, lr=lr, batch_size=8, max_epochs=20)
        for spec, lrs in ((NEGLOG, (0.1, 1.0)), (EERR, (1e-3, 1e-2)))
        for lr in lrs
    ]
    clean = replicate("logreg", ds, plan, cfgs, master_seed=3)
    ds.x[folds[1][0][0], 0] = 1e308
    stacks = recording_stacks(monkeypatch)
    with np.errstate(all="ignore"):
        packed = replicate("logreg", ds, plan, cfgs, master_seed=3)
        monkeypatch.setattr(expacc.harness, "STACK_PARAMS", 1)
        alone = replicate("logreg", ds, plan, cfgs, master_seed=3)
    assert list(stacks[0][0]) == [0] * 4 + [1] * 4 + [2] * 4
    assert [(o.fold, o.loss, o.ok) for o in packed] == [
        (0, "neglog", True), (0, "eerr", True), (1, "neglog", False), (1, "eerr", True),
        (2, "neglog", True), (2, "eerr", True),
    ]
    assert packed[2].lr == 0.1
    assert packed[2].error == "neglog: non-finite Adam second moment at epoch 1"
    assert packed == alone
    # the folds without the row keep the bits of the run without it
    assert [o for o in packed if o.fold != 1] == [o for o in clean if o.fold != 1]


@pytest.mark.parametrize("part", [0, 1])
def test_a_fold_with_an_empty_split_fails_only_its_own_cells(part):
    ds = two_gaussians(39, 120, 4, delta=2.0)
    plan = make_folds(Rng(40), ds.n, "kfold", k=4)
    cfgs = [
        TrainConfig(loss=spec, lr=1e-2, batch_size=16, max_epochs=4) for spec in (NEGLOG, EERR)
    ]
    good = replicate("logreg", ds, plan, cfgs, master_seed=5)
    # an empty train or dev split in fold 2
    broken = list(plan.folds[2])
    broken[part] = np.array([], dtype=int)
    plan.folds[2] = tuple(broken)
    bad = replicate("logreg", ds, plan, cfgs, master_seed=5)
    assert [(o.fold, o.ok) for o in bad] == [(f, f != 2) for f in range(4) for _ in (NEGLOG, EERR)]
    assert {o.error for o in bad if not o.ok} == {
        f"{('train', 'dev')[part]} split is empty"
    }
    assert [o for o in bad if o.fold != 2] == [o for o in good if o.fold != 2]


def test_replicate_rejects_malformed_candidate_lists():
    ds = two_gaussians(28, 60, 3, delta=1.0)
    plan = make_folds(Rng(29), ds.n, "kfold", k=2)
    with pytest.raises(ValueError, match="at least one candidate"):
        replicate("logreg", ds, plan, [])
    # one loss per name: two leerr alphas would be two losses in one cell
    alphas = [TrainConfig(loss=spec, max_epochs=1) for spec in (LEERR, LossSpec("leerr", 0.3))]
    with pytest.raises(ValueError, match="share one name"):
        replicate("logreg", ds, plan, alphas)
    # the candidates of every loss train together in stacks of one batch size
    sizes = [TrainConfig(loss=NEGLOG, max_epochs=1), TrainConfig(loss=EERR, max_epochs=1,
                                                                 batch_size=32)]
    with pytest.raises(ValueError, match="batch_size"):
        replicate("logreg", ds, plan, sizes)
    # a candidate trains from its cell's seed: a seed of its own would be ignored
    with pytest.raises(ValueError, match="seed"):
        replicate("logreg", ds, plan, [TrainConfig(loss=NEGLOG, max_epochs=1, seed=7)])


def test_a_test_set_unlike_its_pool_fails_before_any_training(monkeypatch):
    calls = []
    monkeypatch.setattr(expacc.harness, "train_run", lambda *args: calls.append(args))
    ds = two_gaussians(28, 60, 3, delta=1.0)
    plan = make_folds(Rng(29), ds.n, "kfold", k=2)
    cfgs = [TrainConfig(loss=NEGLOG, max_epochs=1)]
    for test, counts in ((two_gaussians(30, 20, 2, delta=1.0, name="narrow"), "2 features and 2"),
                         (blobs(31, 20, 3, 3, name="wide"), "3 features and 3")):
        with pytest.raises(CountMismatchError, match=f"'{test.name}' has {counts} classes, "
                                                      "but pool 'gauss2' has 3 and 2"):
            replicate("logreg", ds, plan, cfgs, test=test)
    assert calls == []


def test_replicate_continues_past_failing_fold():
    ds = two_gaussians(26, 80, 3, delta=1.0)
    plan = make_folds(Rng(27), ds.n, "kfold", k=4)
    plan.folds[1] = (plan.folds[1][0], np.array([], dtype=int))  # breaks one fold
    cfgs = [TrainConfig(loss=NEGLOG, lr=1e-2, batch_size=16, max_epochs=3)]
    out = replicate("logreg", ds, plan, cfgs, master_seed=3)
    assert sum(not o.ok for o in out) == 1
    assert sum(o.ok for o in out) == 3
    bad = next(o for o in out if not o.ok)
    assert bad.fold == 1 and bad.result is None and bad.error


def test_replicate_reraises_programming_errors(monkeypatch):
    # only divergence and bad data become failed-fold rows; a bug propagates
    def broken(*args, **kwargs):
        raise TypeError("bug in train_run")

    monkeypatch.setattr(expacc.harness, "train_run", broken)
    ds = two_gaussians(26, 80, 3, delta=1.0)
    plan = make_folds(Rng(27), ds.n, "kfold", k=4)
    cfgs = [TrainConfig(loss=NEGLOG, max_epochs=1)]
    with pytest.raises(TypeError, match="bug in train_run"):
        replicate("logreg", ds, plan, cfgs)


def test_replicate_rejects_noise_level_outside_unit_interval():
    # a noise level outside [0, 1] raises before any cell runs, instead of
    # becoming a failed-fold row
    ds = two_gaussians(28, 60, 3, delta=1.0)
    plan = make_folds(Rng(29), ds.n, "kfold", k=2)
    cfgs = [TrainConfig(loss=NEGLOG, max_epochs=1)]
    with pytest.raises(ValueError, match="noise_p"):
        replicate("logreg", ds, plan, cfgs, noise_p=1.5)


def test_replicate_noise_keeps_test_labels_clean():
    # with dev doubling as test, the test measurement must use clean labels:
    # a run at noise_p=1 still evaluates against the original dev labels
    ds = two_gaussians(30, 100, 3, delta=3.0)
    plan = make_folds(Rng(31), ds.n, "five_by_two")
    cfgs = [TrainConfig(loss=NEGLOG, lr=5e-2, batch_size=32, max_epochs=10)]
    out = replicate("logreg", ds, plan, cfgs, master_seed=4, noise_p=1.0, max_folds=2)
    # pure-noise training performs near chance on clean labels, but the
    # errors are measured against clean labels, not the redrawn ones;
    # mostly we assert the runs completed and produced sane fractions
    for o in out:
        assert o.ok and 0.0 <= o.result.test_error <= 1.0
