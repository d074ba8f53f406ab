"""`replicate` restated in plain numpy from the README's "Replication
semantics": one point at a time, one array per layer, `x @ W + b`, a
max/exp/sum softmax, `g.sum(0)`, Adam per array in `optim._update`'s order,
and its own stream keys, noise draw, splits, stopping rule and cell choice.
From `expacc` it takes only `Rng`, which defines the streams."""

import itertools
import math
from dataclasses import astuple, replace

import numpy as np

from expacc.numerics import Rng

KINDS = ("neglog", "eerr", "leerr")  # a loss's index keys its cells' run seed
NOISE, RUN, INIT, ORDER, DROPOUT = 0, 1, 0, 1, 2  # child keys of the master, of a run seed
B1, B2, EPS, FLOOR = 0.9, 0.999, 1e-8, 1e-12  # FLOOR: the least p a loss takes the log of


def forward(params, x, mults=None):
    """Pre-activations of `x`, each layer's input and each hidden layer's
    ReLU mask; `mults` are the dropout multipliers of each layer's input."""
    h, inputs, relus = x, [], []
    for i in range(0, len(params), 2):
        if i:
            relus.append(h > 0)
            h = h * relus[-1]
        inputs.append(h if mults is None else h * mults[i // 2])
        h = inputs[-1] @ params[i] + params[i + 1]
    return h, inputs, relus


def train(cfg, widths, train_split, dev, test):
    """One point alone, from its own seed: (records, best epoch, test accuracy at that epoch
    or NaN with none, error message or None); a failed point keeps the epochs it completed."""
    init, order, drop = (Rng(cfg.seed).child(key) for key in (INIT, ORDER, DROPOUT))
    params = []
    for m, n in zip(widths, widths[1:]):
        bound = math.sqrt(6.0 / (m + n))
        params += [init.uniform(-bound, bound, size=(m, n)), np.zeros(n)]
    moments = [np.zeros_like(p) for p in params + params]
    (x, labels), keep, alpha, t = train_split, 1.0 - cfg.dropout, cfg.loss.alpha, 0
    best, best_dev, best_epoch, records, error = params, -math.inf, 0, [], None
    for epoch in itertools.count(1):
        perm = order.permutation(labels.size)
        sums = np.zeros(3)  # of the losses, the hits and the gradient norms
        for batch, lo in enumerate(range(0, labels.size, cfg.batch_size)):
            rows = perm[lo : lo + cfg.batch_size]
            y, n = labels[rows], rows.size
            mults = None if not cfg.dropout else [  # inverted dropout: 1 / keep or 0
                (drop.random((n, m)) < keep) / keep for m in widths[:-1]]
            a, inputs, relus = forward(params, x[rows], mults)
            p = np.exp(a - a.max(1, keepdims=True))
            p /= p.sum(1, keepdims=True)
            p_r = p[np.arange(n), y]
            log_p = np.log(np.maximum(p_r, FLOOR))
            loss, scale = {"neglog": (-log_p, 1.0), "eerr": (-p_r, p_r),
                           "leerr": (-(p_r + alpha * log_p), p_r + alpha)}[cfg.loss.kind]
            if not np.isfinite(loss.mean()):
                error = f"{cfg.loss.kind}: non-finite loss at epoch {epoch}, batch {batch}"
                break
            g = (p - (np.arange(p.shape[1]) == y[:, None])) * np.reshape(scale, (-1, 1))
            sums += [loss.mean() * n, (a.argmax(1) == y).sum(), np.sqrt((g * g).sum(1)).sum()]
            g, grads = g / n, []
            for i in range(len(inputs) - 1, -1, -1):
                grads[:0] = [inputs[i].T @ g, g.sum(0)]
                if i:
                    g = g @ params[2 * i].T
                    g = (g if mults is None else g * mults[i]) * relus[i - 1]
            t += 1
            for w, dw, m, v in zip(params, grads, moments, moments[len(params):]):
                m[...] = B1 * m + (1.0 - B1) * dw
                v[...] = B2 * v + (1.0 - B2) * (dw * dw)
                w -= cfg.lr * (m / (1.0 - B1**t)) / (np.sqrt(v / (1.0 - B2**t)) + EPS)
        if not (error or all(np.isfinite(v).all() for v in moments[len(params):])):
            error = f"{cfg.loss.kind}: non-finite Adam second moment at epoch {epoch}"
        if error:
            break
        dev_acc = (forward(params, dev[0])[0].argmax(1) == dev[1]).mean()
        records.append((epoch, *sums[:2] / labels.size, dev_acc, sums[2] / labels.size))
        if dev_acc > best_dev:  # ties keep the earliest epoch
            best, best_dev, best_epoch = [w.copy() for w in params], dev_acc, epoch
        # a hard stop at max_epochs; patience counts from min_epochs at the earliest
        if (cfg.max_epochs is not None and epoch >= cfg.max_epochs) or (
            cfg.patience is not None and epoch >= cfg.min_epochs
            and epoch - max(best_epoch, cfg.min_epochs) >= cfg.patience
        ):
            break
    test_acc = (forward(best, test[0])[0].argmax(1) == test[1]).mean() if best_epoch else math.nan
    return records, best_epoch, test_acc, error


def replicate(kind, pool, plan, cfgs, test=None, master_seed=0, noise_p=0.0, hidden=(),
              max_folds=None):
    """`harness.replicate`'s cells as (loss, fold, lr, dropout, the run that wins or None, error
    or None), and every point's run by `astuple` of its seeded config; splits are non-empty."""
    master, x = Rng(master_seed), pool.x / pool.scale
    widths = [pool.d, *(hidden if kind == "mlp" else ()), pool.k]
    cells, runs = [], {}
    for fold, (train_idx, dev_idx) in enumerate(plan.folds[:max_folds]):
        labels, rng = pool.labels.copy(), master.child(NOISE, fold)
        if noise_p:  # each label redrawn uniformly over the classes w.p. noise_p
            hit = rng.uniform(0.0, 1.0, size=pool.n) < noise_p
            labels[hit] = rng.integers(pool.k, size=int(hit.sum()))
        splits = [(x[idx], labels[idx]) for idx in (train_idx, dev_idx)]
        held = dev_idx if plan.test is None else plan.test  # tested under clean labels
        splits.append((x[held], pool.labels[held]) if test is None else
                      (test.x / test.scale, test.labels))
        for name in dict.fromkeys(cfg.loss.kind for cfg in cfgs):
            seed = master.child(RUN, fold, KINDS.index(name)).seed
            cell = [replace(c, seed=seed) for c in cfgs if c.loss.kind == name]
            cell = [(c, train(c, widths, *splits)) for c in cell]
            runs.update((astuple(c), run) for c, run in cell)
            failed = [(c, run) for c, run in cell if run[3]]
            # the first failure fails the cell, else the best dev_acc at its best epoch, earliest
            c, run = failed[0] if failed else max(cell, key=lambda r: r[1][0][r[1][1] - 1][3])
            cells.append((name, fold, c.lr, c.dropout, None if run[3] else run, run[3]))
    return cells, runs
