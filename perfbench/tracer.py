"""Spans around the public functions of each expacc module, from outside.

`install` patches names where their caller resolves them: `harness` and
`cli` import most functions by name, so those are replaced on
`expacc.harness` / `expacc.cli`; methods are replaced on their classes.
Nothing in the package itself changes.

Every wrapped call appends one span (name, start, end, parent span) to flat
in-memory lists; `save` writes them out with the run id once the run ends.
Sizes derived from array shapes (bytes Adam touches, bytes a subset copies,
matmul flops) accumulate in `Tracer.counts` next to the spans.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
import weakref
from collections import Counter

import numpy as np

# Arrays one Adam update reads (param, grad, first and second moment) plus
# the three it writes (param and both moments): the algorithm's minimum
# traffic, whatever temporaries an implementation makes.
ADAM_ARRAYS_MOVED = 7


class Tracer:
    """The spans and computed sizes of one run, kept in memory until `save`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def wrap(self, name: str, fn, after=None):
        """`fn` recording one span per call; `after(counts, args, kwargs, result)`
        runs once the span has closed."""
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(math.nan)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(counts, args, kwargs, result)
            return result

        return traced

    def save(self, path: str) -> None:
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        np.savez(
            path,
            run_id=np.array(self.run_id),
            names=np.array(table),
            name=np.array([index[n] for n in self.names], dtype=np.int32),
            start=np.array(self.starts),
            end=np.array(self.ends),
            parent=np.array(self.parents, dtype=np.int64),
        )

    def layer_stats(self) -> dict:
        """Per span name: calls, total seconds and self seconds (total minus
        the time its direct child spans cover)."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for d, p in zip(dur, self.parents):
            if p >= 0:
                child[p] += d
        stats: dict = {}
        for name, d, c in zip(self.names, dur, child):
            entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += d
            entry["self_s"] += d - c
        return stats

    def artifacts_s(self) -> float:
        """`cmd_run` self time after `replicate` returned: artifact and
        manifest writing, net of the `summarize` span inside that stretch."""
        total = 0.0
        for i, name in enumerate(self.names):
            if name != "cli.cmd_run":
                continue
            kids = [j for j, p in enumerate(self.parents) if p == i]
            after = max(self.ends[j] for j in kids if self.names[j] == "cli.replicate")
            busy = sum(
                self.ends[j] - self.starts[j] for j in kids if self.starts[j] >= after
            )
            total += self.ends[i] - after - busy
        return total


class _PerObject:
    """A value computed once per live object, for hooks on hot calls."""

    def __init__(self, compute):
        self._compute = compute
        self._values = weakref.WeakKeyDictionary()

    def __call__(self, obj, *args):
        value = self._values.get(obj)
        if value is None:
            value = self._values[obj] = self._compute(obj, *args)
        return value


# Bytes of the parameters one optimizer updates, sized on its first step.
_param_bytes = _PerObject(lambda opt, params: sum(p.nbytes for p in params))


def _adam_bytes(counts, args, kwargs, result):
    counts["adam_bytes"] += ADAM_ARRAYS_MOVED * _param_bytes(args[0], args[1])


# (weight elements of all layers, weight elements of the first layer)
_weights = _PerObject(
    lambda model: (
        sum(p.size for p in model.params() if p.ndim == 2),
        next(p for p in model.params() if p.ndim == 2).size,
    )
)


def _forward_flops(counts, args, kwargs, result):
    model, x = args[0], args[1]
    counts["flops"] += 2 * len(x) * _weights(model)[0]


def _backward_flops(counts, args, kwargs, result):
    # Every layer forms its weight gradient; all but the first also pass
    # the gradient back to their input, at the same cost each.
    model, grad = args[0], args[2]
    total, first = _weights(model)
    counts["flops"] += 2 * len(grad) * (2 * total - first)


def _subset_bytes(counts, args, kwargs, result):
    counts["subset_bytes"] += result.x.nbytes + result.labels.nbytes


def _train_run_epochs(counts, args, kwargs, result):
    train = args[1]
    cfg = args[4] if len(args) > 4 else kwargs["cfg"]
    counts["epochs"] += len(result.records)
    counts["best_epochs"] += result.best_epoch
    counts["steps"] += len(result.records) * -(-train.n // cfg.batch_size)


def _replicate_cells(counts, args, kwargs, result):
    counts["cells"] += len(result)


def _us_per_call(entry) -> float:
    return 1e6 * entry["s"] / entry["calls"] if entry["calls"] else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics one traced run yields, by metric name."""
    stats = tracer.layer_stats()
    missing = {"calls": 0, "s": 0.0, "self_s": 0.0}
    loss, adam, fwd, bwd, rng, subset, noise, train, acc = (
        stats.get(n, missing)
        for n in (
            "losses.loss_grad_preact", "optim.adam_step", "models.forward",
            "models.backward", "numerics.rng_uniform", "data.subset",
            "data.inject_label_noise", "harness.train_run", "harness.accuracy",
        )
    )
    counts = tracer.counts
    gflop = counts["flops"] / 1e9
    matmul_s = fwd["self_s"] + bwd["self_s"]
    return {
        "losses.loss_grad_preact.calls": loss["calls"],
        "losses.loss_grad_preact.s": loss["s"],
        "losses.loss_grad_preact.us_per_call": _us_per_call(loss),
        "optim.adam_step.calls": adam["calls"],
        "optim.adam_step.s": adam["s"],
        "optim.adam_step.us_per_call": _us_per_call(adam),
        "optim.adam_step.mb_moved": counts["adam_bytes"] / 1e6,
        "optim.minibatches.s": stats.get("optim.minibatches", missing)["s"],
        "models.forward.calls": fwd["calls"],
        "models.forward.s": fwd["s"],
        "models.backward.calls": bwd["calls"],
        "models.backward.s": bwd["s"],
        "models.gflop": gflop,
        "models.gflop_per_s": gflop / matmul_s if matmul_s else 0.0,
        "numerics.rng_uniform.calls": rng["calls"],
        "numerics.rng_uniform.s": rng["s"],
        "data.subset.calls": subset["calls"],
        "data.subset.s": subset["s"],
        "data.subset.mb_copied": counts["subset_bytes"] / 1e6,
        "data.inject_label_noise.calls": noise["calls"],
        "data.inject_label_noise.s": noise["s"],
        "data.load.s": stats.get("data.load", missing)["s"],
        "data.make_folds.s": stats.get("data.make_folds", missing)["s"],
        "harness.train_run.calls": train["calls"],
        "harness.train_run.self_s": train["self_s"],
        "harness.accuracy.calls": acc["calls"],
        "harness.accuracy.s": acc["s"],
        "harness.epochs": counts["epochs"],
        "harness.useful_epoch_ratio": counts["best_epochs"] / counts["epochs"]
        if counts["epochs"] else 0.0,
        "harness.grid_useful_ratio": counts["cells"] / train["calls"] if train["calls"] else 0.0,
        "stats.summarize.s": stats.get("stats.summarize", missing)["s"],
        "cli.artifacts.s": tracer.artifacts_s(),
    }


# (owner, attribute, span name, hook on the result).  The owner is where the
# caller looks the name up: a module for functions, a class for methods.
BOUNDARIES = (
    ("expacc.cli", "cmd_run", "cli.cmd_run", None),
    ("expacc.cli", "replicate", "cli.replicate", _replicate_cells),
    ("expacc.cli", "load_mnist", "data.load", None),
    ("expacc.cli", "load_uci_csv", "data.load", None),
    ("expacc.cli", "make_folds", "data.make_folds", None),
    ("expacc.cli", "summarize", "stats.summarize", None),
    ("expacc.harness", "inject_label_noise", "data.inject_label_noise", None),
    ("expacc.harness", "train_run", "harness.train_run", _train_run_epochs),
    ("expacc.harness", "accuracy", "harness.accuracy", None),
    ("expacc.harness", "minibatches", "optim.minibatches", None),
    ("expacc.harness", "loss_grad_preact", "losses.loss_grad_preact", None),
    ("expacc.optim:Adam", "step", "optim.adam_step", _adam_bytes),
    ("expacc.data:Dataset", "subset", "data.subset", _subset_bytes),
    ("expacc.numerics:Rng", "uniform", "numerics.rng_uniform", None),
    ("expacc.models:LogisticRegression", "forward", "models.forward", _forward_flops),
    ("expacc.models:Mlp", "forward", "models.forward", _forward_flops),
    ("expacc.models:LogisticRegression", "backward", "models.backward", _backward_flops),
    ("expacc.models:Mlp", "backward", "models.backward", _backward_flops),
)
SPAN_NAMES = frozenset(name for _, _, name, _ in BOUNDARIES)

# The two boundaries an untraced run needs for its end-to-end metrics: when
# set-up ends (`replicate` is entered) and how many minibatch steps ran.
RUN_BOUNDARIES = frozenset(("cli.replicate", "harness.train_run"))


def install(tracer: Tracer, only=SPAN_NAMES) -> None:
    """Wrap the layer boundaries named in `only` (all of them by default)."""
    for owner_path, attr, name, after in BOUNDARIES:
        if name not in only:
            continue
        module_name, _, class_name = owner_path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), after))
