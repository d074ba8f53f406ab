"""The three classification losses: values, fused softmax gradients, curves.

Per instance, with p the predicted class distribution and r the true class:

    neglog:  -log p_r                 (negative log likelihood)
    eerr:    -p_r                     (negated expected accuracy)
    leerr:   -(p_r + alpha * log p_r) (leaky expected error)

Batch values are means over instances.  `loss_grad_preact` fuses the loss
with softmax and returns the gradient with respect to the pre-activation
scores; with e_r the one-hot vector of r the per-instance closed forms are

    neglog:  p - e_r
    eerr:    p_r * (p - e_r)
    leerr:   (p_r + alpha) * (p - e_r)

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .numerics import sigmoid, softmax_rows

__all__ = [
    "KINDS",
    "LossBatchResult",
    "LossSpec",
    "bayes_optimal",
    "emit_loss_curves",
    "loss_grad_preact",
    "loss_value",
    "validate_distribution",
    "write_loss_curves",
]

KINDS = ("neglog", "eerr", "leerr")

# Floor for probabilities inside logs.  Only the standalone value path needs
# it (the fused gradient never divides by p); keeps loss_value total.
_P_FLOOR = 1e-12

DEFAULT_ALPHA = 0.1


@dataclass(frozen=True)
class LossSpec:
    """A pluggable loss choice; `alpha` is the leak weight of `leerr`."""

    kind: str
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}, expected one of {KINDS}")
        if self.kind == "leerr" and not self.alpha > 0:
            raise ValueError(f"leerr needs alpha > 0, got {self.alpha}")

    @property
    def name(self) -> str:
        return self.kind


NEGLOG = LossSpec("neglog")
EERR = LossSpec("eerr")
LEERR = LossSpec("leerr")


@dataclass
class LossBatchResult:
    """Mean loss, pre-activation gradient of it, and a gradient diagnostic.

    `grad_preact` is the gradient of the batch-mean loss (it carries the 1/N).
    `per_instance_norms` holds the 2-norm of each instance's own loss
    gradient w.r.t. its pre-activation row, without the 1/N factor, so their
    mean is a batch-size-invariant diagnostic.
    """

    mean_loss: float
    grad_preact: np.ndarray
    per_instance_norms: np.ndarray


def validate_distribution(probs) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size < 1:
        raise ValueError(f"distribution must be a non-empty vector, got shape {probs.shape}")
    if (probs < 0).any() or (probs > 1).any():
        raise ValueError("distribution entries must lie in [0, 1]")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError(f"distribution sums to {probs.sum()!r}, not 1")
    return probs


def _per_class_losses(spec: LossSpec, probs: np.ndarray) -> np.ndarray:
    """Loss as a function of the true class, for one distribution."""
    p = np.maximum(probs, _P_FLOOR)
    if spec.kind == "neglog":
        return -np.log(p)
    if spec.kind == "eerr":
        return -probs
    return -(probs + spec.alpha * np.log(p))


def loss_value(spec: LossSpec, probs, true_class: int) -> float:
    """Loss of one predicted distribution against one true class."""
    probs = validate_distribution(probs)
    if not 0 <= true_class < probs.size:
        raise ValueError(f"true_class {true_class} out of range for k={probs.size}")
    return float(_per_class_losses(spec, probs)[true_class])


def loss_grad_preact(spec: LossSpec, preact_batch: np.ndarray, true_classes) -> LossBatchResult:
    """Fused softmax+loss: batch-mean value and its pre-activation gradient."""
    a = np.asarray(preact_batch, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"pre-activation batch must be 2-D, got shape {a.shape}")
    r = np.asarray(true_classes, dtype=np.int64)
    n, k = a.shape
    if r.shape != (n,):
        raise ValueError(f"true_classes shape {r.shape} does not match batch of {n}")
    if (r < 0).any() or (r >= k).any():
        raise ValueError(f"true class out of range for k={k}")

    p = softmax_rows(a)
    rows = np.arange(n)
    p_true = p[rows, r]

    if spec.kind == "neglog":
        coeff = np.ones(n)
        values = -np.log(np.maximum(p_true, _P_FLOOR))
    elif spec.kind == "eerr":
        coeff = p_true
        values = -p_true
    else:
        coeff = p_true + spec.alpha
        values = -(p_true + spec.alpha * np.log(np.maximum(p_true, _P_FLOOR)))

    grad = p.copy()
    grad[rows, r] -= 1.0
    grad *= coeff[:, None]

    return LossBatchResult(
        mean_loss=float(values.mean()),
        grad_preact=grad / n,
        per_instance_norms=np.linalg.norm(grad, axis=1),
    )


def emit_loss_curves(grid_size: int, alpha: float = DEFAULT_ALPHA):
    """Plot-ready tables of the losses in the binary setting.

    Table A tabulates the losses against the probability assigned to the
    true class on a uniform open grid in (0, 1), with the accuracy losses
    translated to error-rate form (1 - p) so all curves share the 0-1-loss
    convention.  Table B tabulates the sigmoid compositions on a uniform
    grid over pre-activations in [-10, 10] together with their analytic
    derivatives.

    Returns (header_a, table_a, header_b, table_b) where the tables are
    (grid_size x ncols) arrays matching the headers.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")

    p = (np.arange(grid_size) + 0.5) / grid_size
    table_a = np.column_stack([p, -np.log(p), 1.0 - p, 1.0 - p - alpha * np.log(p)])
    header_a = ("p", "neglog", "eerr", "leerr")

    a = np.linspace(-10.0, 10.0, grid_size)
    s = sigmoid(a)
    log_s = np.log(np.maximum(s, _P_FLOOR))
    table_b = np.column_stack(
        [
            a,
            -log_s,
            1.0 - s,
            1.0 - s - alpha * log_s,
            s - 1.0,
            -s * (1.0 - s),
            -(s + alpha) * (1.0 - s),
        ]
    )
    header_b = ("a", "neglog_sig", "eerr_sig", "leerr_sig", "d_neglog", "d_eerr", "d_leerr")
    return header_a, table_a, header_b, table_b


def _write_csv(path: str, header, table: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in table:
            writer.writerow([repr(float(v)) for v in row])


def write_loss_curves(out_dir: str, grid_size: int = 1000, alpha: float = DEFAULT_ALPHA):
    """Write both curve tables as CSV; returns the two file paths."""
    header_a, table_a, header_b, table_b = emit_loss_curves(grid_size, alpha)
    path_a = os.path.join(out_dir, "loss_curves_prob.csv")
    path_b = os.path.join(out_dir, "loss_curves_preact.csv")
    _write_csv(path_a, header_a, table_a)
    _write_csv(path_b, header_b, table_b)
    return path_a, path_b


def _simplex_grid(k: int, steps: int):
    """All distributions over k classes with entries i/steps, lexicographic."""
    if k == 2:
        for i in range(steps + 1):
            yield np.array([i, steps - i], dtype=np.float64) / steps
    else:
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                yield np.array([i, j, steps - i - j], dtype=np.float64) / steps


def bayes_optimal(spec: LossSpec, true_conditional, grid_step: float) -> np.ndarray:
    """Brute-force risk minimizer over a simplex grid.

    Searches every grid distribution q (entry granularity ~= grid_step) and
    returns the one minimizing the expected loss under `true_conditional`,
    breaking ties toward the lexicographically smallest q.  Only k = 2 or 3
    is supported; the grid grows too fast beyond that.
    """
    true_conditional = validate_distribution(true_conditional)
    k = true_conditional.size
    if k not in (2, 3):
        raise ValueError(f"brute-force search supports k in (2, 3), got {k}")
    if not 0 < grid_step <= 0.5:
        raise ValueError(f"grid_step must be in (0, 0.5], got {grid_step}")

    steps = max(2, round(1.0 / grid_step))
    best_q = None
    best_risk = math.inf
    for q in _simplex_grid(k, steps):
        risk = float(true_conditional @ _per_class_losses(spec, q))
        if risk < best_risk:
            best_risk = risk
            best_q = q
    return best_q
