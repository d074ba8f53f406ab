"""Stacks of one replication training side by side.

Every stack trains with numpy's OpenBLAS pinned to one thread.  Two or
more stacks train on one worker thread per usable core; one stack trains in
the calling thread, unless it gathers enough floats per step to split over
idle cores, and so do all stacks on one core.  The stacks of these
replications are recorded from worker threads, so no test here depends on
the order in which they start.  A failing stack or an interrupt stops the
running stacks at their next step.  Importing expacc, and pinning OpenBLAS
for the stacks and restoring it, each leave no idle OpenBLAS worker
running; those tests count threads in a fresh process.
"""

import contextlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import expacc
import expacc.harness
import expacc.numerics
from expacc.data import SplitPlan, make_folds
from expacc.harness import TrainConfig, replicate
from expacc.losses import LossSpec
from expacc.numerics import Rng
from helpers import blobs, one_fold, two_gaussians, write_idx_pair

NEGLOG, EERR = LossSpec("neglog"), LossSpec("eerr")
BLAS = expacc.numerics._openblas_threads()
needs_blas = pytest.mark.skipif(BLAS is None, reason="numpy bundles no OpenBLAS thread setter")
needs_idle_workers = pytest.mark.skipif(
    BLAS is None or BLAS[2] is None or expacc.harness._usable_cores() < 2
    or not os.path.isdir("/proc/self/task"),
    reason="needs OpenBLAS's blas_thread_shutdown_, two usable cores and /proc/self/task",
)


def experiment():
    """A tiny dropout MLP over two losses, two lrs and two folds."""
    ds = blobs(41, 96, d=5, k=3, spread=2.0)
    plan = make_folds(Rng(42), ds.n, "kfold", k=4)
    cfgs = [
        TrainConfig(loss=spec, lr=lr, dropout=0.2, batch_size=16, max_epochs=3)
        for spec in (NEGLOG, EERR)
        for lr in (1e-2, 0.1)
    ]
    return ds, plan, cfgs


def run(monkeypatch, cpus, budget=1):
    """`experiment` on `cpus` usable cores; the default budget of one
    parameter trains each of its 8 points as a stack of its own."""
    ds, plan, cfgs = experiment()
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        patch.setattr(expacc.harness, "STACK_PARAMS", budget)
        return replicate(
            "mlp", ds, plan, cfgs, master_seed=4, noise_p=0.1, hidden=(6, 4), max_folds=2
        )


def recording(monkeypatch, record):
    """Patch `train_run` to call `record(points)` before each stack."""
    train_run = expacc.harness.train_run

    def recorded(model_kind, train, dev, test, cfg, hidden, points, folds):
        record(points)
        return train_run(model_kind, train, dev, test, cfg, hidden, points, folds)

    monkeypatch.setattr(expacc.harness, "train_run", recorded)


@pytest.fixture
def blas_at_two():
    """OpenBLAS at two threads for the test, then at its count before with
    no worker running."""
    get, set_, _ = BLAS
    before = get()
    set_(2)
    yield get
    set_(before)
    expacc.numerics._end_blas_workers()


def check_blas_pinned(monkeypatch, get, size, budget):
    """Stacks of `size` points (at `budget`) on 1 and 2 cores, with and
    without a bug in a stack: every stack sees one BLAS thread, one worker
    trains in the main thread and starts no thread, two train on at most
    two threads of their own, and the count of two is restored."""
    seen, threads = [], []

    def record(points):
        seen.append((len(points), get()))
        threads.append(threading.current_thread())
        if bug:
            raise TypeError("bug in a stack")

    def no_thread(self):
        raise AssertionError("a one-worker run started a thread")

    recording(monkeypatch, record)
    main = threading.main_thread()
    for cpus in (1, 2):
        one = cpus == 1 or size == 8  # one worker: the stacks train in the calling thread
        for bug in (False, True):
            del seen[:], threads[:]
            with monkeypatch.context() as patch:
                if one:
                    patch.setattr(threading.Thread, "start", no_thread)
                with (pytest.raises(TypeError, match="bug in a stack") if bug
                      else contextlib.nullcontext()):
                    run(monkeypatch, cpus, budget)
            assert seen and set(seen) == {(size, 1)}
            assert bug or len(seen) == 8 // size
            assert set(threads) == {main} if one else main not in threads and len(set(threads)) <= 2
            assert get() == 2


@needs_blas
def test_blas_runs_on_one_thread_while_two_or_more_stacks_train(monkeypatch, blas_at_two):
    # eight one-point stacks
    check_blas_pinned(monkeypatch, blas_at_two, 1, 1)


@needs_blas
def test_a_single_stack_trains_at_one_blas_thread_in_the_calling_thread(monkeypatch, blas_at_two):
    # all eight points in one stack: it trains at one BLAS thread in the
    # calling thread, and BLAS is back at its count before once it is done
    check_blas_pinned(monkeypatch, blas_at_two, 8, expacc.harness.STACK_PARAMS)


def in_a_fresh_process(code: str):
    """The JSON on the last line `code` prints, run in a new interpreter at
    OpenBLAS's default thread count; `threads()` counts the process's
    threads there."""
    here = Path(__file__).parent
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(expacc.__file__).parents[1]), str(here), os.environ.get("PYTHONPATH")]))
    code = "import json, os\nthreads = lambda: len(os.listdir('/proc/self/task'))\n" + code
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1])


@needs_idle_workers
def test_importing_expacc_ends_the_workers_numpy_starts():
    alone, imported = in_a_fresh_process(
        "import numpy\nalone = threads()\nimport expacc\nprint(json.dumps([alone, threads()]))"
    )
    assert alone > 1  # numpy's OpenBLAS started its workers
    assert imported == 1


@needs_idle_workers
def test_a_product_after_the_import_has_numpys_bits_and_threads():
    product = """
import hashlib
import numpy as np
a = np.random.default_rng(0).standard_normal((512, 512))
digest = hashlib.sha256((a @ a).tobytes()).hexdigest()
print(json.dumps([digest, threads()]))
"""
    alone = in_a_fresh_process(product)
    after_expacc = in_a_fresh_process("import expacc\n" + product)
    # the product starts the ended workers again and runs on as many threads
    assert alone[1] > 1
    assert after_expacc == alone


@needs_idle_workers
def test_one_blas_thread_restores_the_count_and_leaves_no_worker():
    before, inside, after, after_error = in_a_fresh_process("""
import expacc.harness
get = expacc.harness._openblas_threads()[0]
before = get()
with expacc.harness._one_blas_thread():
    inside = [get(), threads()]
after = [get(), threads()]
try:
    with expacc.harness._one_blas_thread():
        raise KeyError
except KeyError:
    pass
print(json.dumps([before, inside, after, [get(), threads()]]))
""")
    assert before > 1
    assert inside == [1, 1]
    assert after == after_error == [before, 1]


@needs_idle_workers
def test_a_two_stack_replication_leaves_no_worker():
    before, left, after = in_a_fresh_process("""
import expacc.harness
import time
from test_side_by_side import experiment
get = expacc.harness._openblas_threads()[0]
before = get()
ds, plan, cfgs = experiment()
expacc.harness.STACK_PARAMS = 1  # each point a stack of its own
out = expacc.harness.replicate("mlp", ds, plan, cfgs[:2], master_seed=4, hidden=(6, 4), max_folds=1)
assert len(out) == 1 and out[0].ok
# a joined pool thread is still listed until the system has ended it;
# a worker left running stays listed past the wait
end = time.monotonic() + 5
while threads() > 1 and time.monotonic() < end:
    time.sleep(0.01)
print(json.dumps([before, threads(), get()]))
""")
    assert left == 1
    assert after == before


def test_a_bug_in_one_stack_propagates_and_cancels_the_stacks_not_started(monkeypatch):
    _, plan, _ = experiment()
    started = []
    train_run = expacc.harness.train_run

    def buggy_train_run(model_kind, train, dev, test, cfg, hidden, points, folds):
        fold = next(f for f, (idx, _) in enumerate(plan.folds) if np.array_equal(idx, train[0].index))
        started.append((fold, points[0].loss.name, points[0].lr))
        if started[-1] == (0, "neglog", 1e-2):  # the first stack
            raise TypeError("bug in the first stack")
        time.sleep(0.2)
        return train_run(model_kind, train, dev, test, cfg, hidden, points, folds)

    monkeypatch.setattr(expacc.harness, "train_run", buggy_train_run)
    with pytest.raises(TypeError, match="bug in the first stack") as excinfo:
        run(monkeypatch, 2)
    # the traceback reaches into the stack's own frame
    assert excinfo.traceback[-1].name == "buggy_train_run"
    assert (0, "neglog", 1e-2) in started
    # the workers take stacks in order: those that ran are the first ones,
    # and the rest never started
    order = [(f, name, lr) for f in (0, 1) for name in ("neglog", "eerr") for lr in (1e-2, 0.1)]
    assert sorted(started, key=order.index) == order[: len(started)]
    assert len(started) < len(order)


def test_a_diverging_stack_fails_only_its_own_cell(monkeypatch):
    # one row near the float64 limit in fold 1's train split overflows
    # neglog's loss at lr 1 and its Adam second moment at lr 0.1, which comes
    # first in candidate order; each point trains as its own stack, side by side
    ds = two_gaussians(37, 120, 4, delta=2.0)
    perm = Rng(38).permutation(ds.n)
    plan = SplitPlan([(perm[40 * i : 40 * i + 30], perm[40 * i + 30 : 40 * i + 40]) for i in range(3)])
    cfgs = [
        TrainConfig(loss=spec, lr=lr, batch_size=8, max_epochs=20)
        for spec, lrs in ((NEGLOG, (0.1, 1.0)), (EERR, (1e-3, 1e-2)))
        for lr in lrs
    ]
    ds.x[plan.folds[1][0][0], 0] = 1e308
    # the caller's numpy error state holds in the worker threads: with it
    # lost, the overflow warning would raise there
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        packed = replicate("logreg", ds, plan, cfgs, master_seed=3)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(expacc.harness, "STACK_PARAMS", 1)
        alone = replicate("logreg", ds, plan, cfgs, master_seed=3)
    assert [(o.fold, o.loss) for o in alone if not o.ok] == [(1, "neglog")]
    assert alone[2].lr == 0.1
    assert alone[2].error == "neglog: non-finite Adam second moment at epoch 1"
    assert alone == packed


def stack_sizes(monkeypatch, ds, plan, cfgs, cpus):
    """The outcomes of `replicate` on `cpus` usable cores, and the point
    count of each stack it trained, smallest first."""
    sizes = []
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        recording(patch, lambda points: sizes.append(len(points)))
        out = replicate("logreg", ds, plan, cfgs, master_seed=5)
    return out, sorted(sizes)


def mnist_shaped():
    """9 logreg points (3 folds x 3 losses) on 784 features at batch 64:
    each step gathers 9 x 64 x 784 floats, and half a stack still more
    than `STACK_PARAMS`."""
    ds = blobs(51, 150, d=784, k=10, spread=0.5)
    plan = make_folds(Rng(52), ds.n, "kfold", k=3)
    cfgs = [
        TrainConfig(loss=spec, lr=1e-3, batch_size=64, max_epochs=1)
        for spec in (NEGLOG, EERR, LossSpec("leerr"))
    ]
    return ds, plan, cfgs


@needs_blas
def test_a_wide_single_stack_splits_into_balanced_stacks_over_idle_cores(monkeypatch):
    ds, plan, cfgs = mnist_shaped()
    one, sizes = stack_sizes(monkeypatch, ds, plan, cfgs, 1)
    assert sizes == [9]
    two, sizes = stack_sizes(monkeypatch, ds, plan, cfgs, 2)
    assert sizes == [4, 5]
    assert len(one) == 9 and all(o.ok for o in one)
    assert one == two


def test_a_narrow_single_stack_stays_whole_on_two_cores(monkeypatch):
    # pima's shape: 90 points of 8 features gather 46,080 floats per step,
    # so each half would gather less than STACK_PARAMS
    ds = two_gaussians(53, 40, 8, delta=2.0)
    plan = make_folds(Rng(54), ds.n, "five_by_two")
    cfgs = [
        TrainConfig(loss=spec, lr=lr, batch_size=64, max_epochs=1)
        for spec in (NEGLOG, EERR, LossSpec("leerr"))
        for lr in (1e-4, 1e-3, 1e-2)
    ]
    out, sizes = stack_sizes(monkeypatch, ds, plan, cfgs, 2)
    assert sizes == [90] and len(out) == 30


def test_without_a_blas_thread_setter_a_wide_stack_stays_whole(monkeypatch):
    ds, plan, cfgs = mnist_shaped()
    monkeypatch.setattr(expacc.harness, "_openblas_threads", lambda: None)
    _, sizes = stack_sizes(monkeypatch, ds, plan, cfgs, 2)
    assert sizes == [9]


def write_wide_experiment(root: Path, losses: list) -> None:
    """An IDX pool and a config whose `losses` train as one stack each of
    a 784-300-10 MLP at batch 64."""
    root.mkdir()
    rng = Rng(3)
    n = 256
    labels = rng.integers(10, size=n).tolist()
    write_idx_pair(root, rng.integers(256, size=(n, 28, 28)), labels)
    config = {
        "dataset": {
            "name": "wide",
            "train_images": "images-idx3-ubyte",
            "train_labels": "labels-idx1-ubyte",
        },
        "model": {"kind": "mlp", "hidden": [300]},
        "losses": losses,
        "train": {"lr": 1e-3, "batch_size": 64, "max_epochs": 1},
        "replication": {"scheme": "kfold", "folds": 2, "max_folds": 1},
        "seed": 3,
        "out_dir": "out",
    }
    (root / "config.yaml").write_text(yaml.safe_dump(config, sort_keys=True))


@pytest.mark.parametrize("losses", [["neglog"], ["neglog", "eerr"]], ids=["one_stack", "two_stacks"])
def test_a_run_is_the_same_at_one_and_two_blas_threads(tmp_path, losses):
    # the 64x784 @ 784x300 product changes bits with OpenBLAS's thread
    # count; pinned to one thread while any stack trains, it does not
    write_wide_experiment(tmp_path / "wide", losses)
    src = str(Path(expacc.__file__).parents[1])
    manifests = []
    for threads in ("1", "2"):
        where = tmp_path / threads
        shutil.copytree(tmp_path / "wide", where)
        env = dict(
            os.environ, OPENBLAS_NUM_THREADS=threads,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        )
        subprocess.run([sys.executable, "-m", "expacc", "run", "config.yaml"], cwd=where,
                       env=env, check=True, capture_output=True)
        manifests.append((where / "out" / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]


def long_stacks(first: int = 1):
    """`_train_stacks` jobs of two logreg stacks of 2,000 steps each, of
    `first` and 1 points."""
    ds = blobs(61, 96, d=4, k=2)
    train, dev, test = one_fold(ds, np.arange(64), np.arange(64, 80), np.arange(80, 96))
    cfg = TrainConfig(loss=NEGLOG, lr=1e-3, batch_size=16, max_epochs=500)
    return [("logreg", train, dev, test, cfg, (), [cfg] * size) for size in (first, 1)]


INTERRUPTED_RUN = """
import json, os, signal, sys, threading
import expacc.harness
from test_side_by_side import long_stacks

at = int(sys.argv[1])
lock, steps = threading.Lock(), []
loss = expacc.harness.loss_grad_preact


def counting(*args):
    with lock:
        steps.append(None)
        step = len(steps)
    if step == at:
        os.kill(os.getpid(), signal.SIGINT)
    stop = expacc.harness._stop.get()
    if at <= step <= at + 2 and stop is not None:
        # a worker's step past the interrupt waits until the run has seen
        # it, so the count does not depend on when the main thread runs
        stop.wait(10)
    return loss(*args)


expacc.harness.loss_grad_preact = counting
running = min(2, expacc.harness._workers())
try:
    expacc.harness._train_stacks(long_stacks())
    print(json.dumps({"steps": len(steps), "interrupted": False, "running": running}))
except KeyboardInterrupt:
    print(json.dumps({"steps": len(steps), "interrupted": True, "running": running}))
"""


@pytest.mark.bits
def test_an_interrupt_stops_every_running_stack_within_one_step():
    # on one usable core the stacks train one at a time in the calling
    # thread, on two side by side; either way the interrupt ends the run
    here = Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        str(Path(expacc.__file__).parents[1]), str(here), os.environ.get("PYTHONPATH")])))
    at = 20
    out = subprocess.run([sys.executable, "-c", INTERRUPTED_RUN, str(at)], env=env,
                         capture_output=True, text=True, check=True, timeout=300).stdout
    result = json.loads(out.splitlines()[-1])
    assert result["interrupted"]
    assert at <= result["steps"] <= at + result["running"]


@pytest.mark.bits
@pytest.mark.parametrize("failing", [0, 1])
def test_a_failing_stack_stops_its_long_sibling_within_one_step(monkeypatch, failing):
    if failing == 1 and expacc.harness._workers() < 2:
        pytest.skip("one worker trains the stacks one at a time, in stack order")
    failed, after = threading.Event(), []
    loss = expacc.harness.loss_grad_preact

    def buggy(coefs, preact, targets):
        if len(coefs) == 2:  # the failing stack, at its first step
            failed.set()
            raise TypeError("bug at the first step")
        if failed.is_set():
            after.append(None)
            stop = expacc.harness._stop.get()
            if len(after) == 1 and stop is not None:
                # wait until the run has seen the failure, so the count does
                # not depend on when the main thread runs
                stop.wait(10)
        return loss(coefs, preact, targets)

    monkeypatch.setattr(expacc.harness, "loss_grad_preact", buggy)
    jobs = long_stacks(first=2)
    if failing == 1:
        jobs.reverse()
    with pytest.raises(TypeError, match="bug at the first step") as excinfo:
        expacc.harness._train_stacks(jobs)
    assert excinfo.traceback[-1].name == "buggy"
    assert failed.is_set() and len(after) <= 1
