"""The three classification losses: values, fused softmax gradients, curve tables.

Per instance, with p the predicted class distribution and r the true class:

    neglog:  -log p_r                 (negative log likelihood)
    eerr:    -p_r                     (negated expected accuracy)
    leerr:   -(p_r + alpha * log p_r) (leaky expected error)

All three are -(a p_r + b log p_r) with the coefficients (a, b) of
`LossSpec.coefficients`: (0, 1), (1, 0) and (1, alpha).  `_losses_of` holds
that formula once; `loss_value`, `bayes_optimal` and the fused path all call
it.  Batch values are means over instances.  `loss_grad_preact` fuses the
loss with softmax and returns the gradient with respect to the
pre-activation scores; with e_r the one-hot vector of r it is
(a p_r + b) (p - e_r) per instance, which is

    neglog:  p - e_r
    eerr:    p_r * (p - e_r)
    leerr:   (p_r + alpha) * (p - e_r)

Each coefficient is exact in IEEE arithmetic (0 p + 1 = 1, 1 p + 0 = p,
1 p + alpha = p + alpha, and likewise for the values), so one formula gives
each kind the bits of its own closed form, and a stack of networks can mix
kinds in one call.  Softmax, the gradient's per-instance scaling and the
per-instance gradient norms work along the class axis with `numerics`'
column loops: column by column on a short axis, in numpy's own order, so
they keep numpy's bits at a fraction of its per-row cost.

All functions here are pure and safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import by_column, reduce_last, sigmoid, softmax_rows

__all__ = [
    "KINDS",
    "LossBatchResult",
    "LossSpec",
    "bayes_optimal",
    "emit_loss_curves",
    "loss_grad_preact",
    "loss_value",
    "validate_distribution",
]

KINDS = ("neglog", "eerr", "leerr")

# Floor for probabilities inside logs.  Only loss values need it (the fused
# gradient never divides by p); keeps loss_value total.
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
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if self.kind == "leerr" and not self.alpha > 0:
            raise ValueError(f"leerr needs alpha > 0, got {self.alpha}")
        if self.kind != "leerr" and self.alpha != DEFAULT_ALPHA:
            raise ValueError(f"{self.kind} ignores alpha: only leerr reads it, got {self.alpha}")

    @property
    def name(self) -> str:
        return self.kind

    @property
    def coefficients(self) -> tuple:
        """(a, b) of the loss -(a p_r + b log p_r)."""
        if self.kind == "neglog":
            return (0.0, 1.0)
        return (1.0, 0.0 if self.kind == "eerr" else self.alpha)


NEGLOG = LossSpec("neglog")
EERR = LossSpec("eerr")
LEERR = LossSpec("leerr")


@dataclass
class LossBatchResult:
    """Mean loss, pre-activation gradient of it, and a gradient diagnostic.

    `mean_loss` is a float for a 2-D batch and one value per leading index
    of a stacked one.  `grad_preact` is the gradient of the batch-mean loss
    (it carries the 1/N).
    `per_instance_norms` holds the 2-norm of each instance's own loss
    gradient w.r.t. its pre-activation row, without the 1/N factor, so their
    mean is a batch-size-invariant diagnostic.
    """

    mean_loss: float | np.ndarray
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


def _losses_of(a, b, p_true: np.ndarray) -> np.ndarray:
    """Loss of each probability assigned to the true class, elementwise, for
    the coefficients (a, b) of `LossSpec.coefficients` (arrays broadcast)."""
    return -(a * p_true + b * np.log(np.maximum(p_true, _P_FLOOR)))


def loss_value(spec: LossSpec, probs, true_class: int) -> float:
    """Loss of one predicted distribution against one true class."""
    probs = validate_distribution(probs)
    if not 0 <= true_class < probs.size:
        raise ValueError(f"true_class {true_class} out of range for k={probs.size}")
    return float(_losses_of(*spec.coefficients, probs[true_class]))


def loss_grad_preact(spec, preact_batch: np.ndarray, true_classes) -> LossBatchResult:
    """Fused softmax+loss: batch-mean value and its pre-activation gradient.

    `preact_batch` is (..., n, k), where leading axes are a stack of
    networks, and `mean_loss` and the rows of `per_instance_norms` are per
    leading index.  `true_classes` is (n,), shared by every slice, or one
    row per slice (`preact_batch`'s shape without k).  `spec` is one
    `LossSpec` for every slice or, for a 3-D stack, a (points, 2) array of
    each point's `LossSpec.coefficients`.  Each slice gets the bits a 2-D
    batch of its own would.
    """
    a = np.asarray(preact_batch, dtype=np.float64)
    if a.ndim < 2:
        raise ValueError(f"pre-activation batch must be at least 2-D, got shape {a.shape}")
    r = np.asarray(true_classes, dtype=np.int64)
    n, k = a.shape[-2:]
    if r.shape not in ((n,), a.shape[:-1]):
        raise ValueError(f"true_classes shape {r.shape} does not match batch of {a.shape[:-1]}")
    if (r < 0).any() or (r >= k).any():
        raise ValueError(f"true class out of range for k={k}")
    if isinstance(spec, LossSpec):
        coef_a, coef_b = spec.coefficients
    else:
        coefs = np.asarray(spec, dtype=np.float64)
        if a.ndim != 3 or coefs.shape != (len(a), 2):
            raise ValueError(
                f"loss coefficients of shape {coefs.shape} for a batch of shape {a.shape}"
            )
        coef_a, coef_b = coefs[:, :1], coefs[:, 1:]

    p = softmax_rows(a)
    # Flat offsets of each instance's true class: the gather returns p_true
    # in C order, so each slice's mean sums its n values in the order a 1-D
    # array does.
    flat = np.arange(0, p.size, k).reshape(a.shape[:-1]) + r
    p_true = p.reshape(-1).take(flat)

    grad = p.copy()
    grad.reshape(-1)[flat] -= 1.0
    by_column(np.multiply, grad, (coef_a * p_true + coef_b)[..., None], out=grad)

    return LossBatchResult(
        mean_loss=_losses_of(coef_a, coef_b, p_true).mean(axis=-1),
        grad_preact=grad / n,
        # `np.linalg.norm(grad, axis=-1)`, reduced column by column on a short class axis
        per_instance_norms=np.sqrt(reduce_last(np.add, grad * grad)),
    )


def emit_loss_curves(grid_size: int):
    """Plot-ready tables of the losses in the binary setting.

    Table A tabulates the losses against the probability assigned to the
    true class on a uniform open grid in (0, 1), with the accuracy losses
    translated to error-rate form (1 - p) so all curves share the 0-1-loss
    convention.  Table B tabulates the sigmoid compositions on a uniform
    grid over pre-activations in [-10, 10] together with their analytic
    derivatives.  The leerr columns use `DEFAULT_ALPHA`.

    Returns (header_a, table_a, header_b, table_b) where the tables are
    (grid_size x ncols) arrays matching the headers.
    """
    if grid_size < 2:
        raise ValueError(f"grid_size must be >= 2, got {grid_size}")

    p = (np.arange(grid_size) + 0.5) / grid_size
    table_a = np.column_stack([p, -np.log(p), 1.0 - p, 1.0 - p - DEFAULT_ALPHA * np.log(p)])
    header_a = ("p", "neglog", "eerr", "leerr")

    a = np.linspace(-10.0, 10.0, grid_size)
    s = sigmoid(a)
    log_s = np.log(np.maximum(s, _P_FLOOR))
    table_b = np.column_stack(
        [
            a,
            -log_s,
            1.0 - s,
            1.0 - s - DEFAULT_ALPHA * log_s,
            s - 1.0,
            -s * (1.0 - s),
            -(s + DEFAULT_ALPHA) * (1.0 - s),
        ]
    )
    header_b = ("a", "neglog_sig", "eerr_sig", "leerr_sig", "d_neglog", "d_eerr", "d_leerr")
    return header_a, table_a, header_b, table_b


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
        risk = float(true_conditional @ _losses_of(*spec.coefficients, q))
        if risk < best_risk:
            best_risk = risk
            best_q = q
    return best_q
