import math

import numpy as np
import pytest

from expacc.losses import LossSpec, loss_grad_preact
from expacc.models import (
    LogisticRegression,
    Mlp,
    build_model,
    xavier_init,
)
from expacc.numerics import Rng
from helpers import fd_param_grads, rel_err


def test_xavier_bound_mnist_shape():
    w = xavier_init(Rng(0), 784, 10)
    bound = math.sqrt(6.0 / 794.0)
    assert bound == pytest.approx(0.08693, abs=1e-5)
    assert np.abs(w).max() <= bound
    assert w.shape == (784, 10)


def test_xavier_bound_degenerate_fans():
    w = xavier_init(Rng(1), 1, 1)
    assert np.abs(w).max() <= math.sqrt(3.0)
    with pytest.raises(ValueError):
        xavier_init(Rng(1), 0, 1)


def test_xavier_sample_mean_near_zero():
    w = xavier_init(Rng(2), 100, 1000)  # 1e5 draws
    bound = math.sqrt(6.0 / 1100.0)
    # uniform(-b, b) has sd b/sqrt(3); allow 3 standard errors
    assert abs(w.mean()) <= 3.0 * bound / math.sqrt(3.0 * w.size)


def test_logreg_zero_parameters_give_uniform_scores():
    model = LogisticRegression(Rng(0), 4, 3)
    model.W[...] = 0.0
    preact, _ = model.forward(np.ones((2, 4)))
    assert np.array_equal(preact, np.zeros((2, 3)))


def test_logreg_bias_gradient_is_grad_preact_row():
    model = LogisticRegression(Rng(3), 5, 4)
    x = Rng(4).normal(size=(1, 5))
    preact, trace = model.forward(x)
    g = loss_grad_preact(LossSpec("neglog"), preact, [2]).grad_preact
    grads = model.backward(trace, g)
    assert np.allclose(grads[1], g[0], atol=1e-15)


def test_backward_zero_upstream_gives_zero_grads():
    for kind, kw in (("logreg", {}), ("mlp", {"hidden": (6, 5, 4)})):
        model = build_model(kind, Rng(5), 7, 3, **kw)
        x = Rng(6).normal(size=(4, 7))
        _, trace = model.forward(x)
        grads = model.backward(trace, np.zeros((4, 3)))
        assert all(np.all(g == 0) for g in grads)


def test_mlp_dead_relu_blocks_incoming_weight_gradient():
    model = Mlp(Rng(7), 3, 2, hidden=(4,))
    x = Rng(8).normal(size=(1, 3))
    preact, trace = model.forward(x)
    dead = ~trace.relu_masks[0][0]
    if not dead.any():
        model.biases[0][0] = -100.0
        preact, trace = model.forward(x)
        dead = ~trace.relu_masks[0][0]
    grads = model.backward(trace, np.ones((1, 2)))
    assert np.all(grads[0][:, dead] == 0.0)


def test_mlp_eval_mode_is_deterministic_despite_dropout():
    model = Mlp(Rng(9), 6, 3, hidden=(8, 6, 4), input_dropout=0.9, hidden_dropout=0.9)
    x = Rng(10).normal(size=(3, 6))
    a, _ = model.forward(x, "eval")
    b, _ = model.forward(x, "eval")
    assert np.array_equal(a, b)


def test_mlp_train_mode_without_dropout_equals_eval():
    model = Mlp(Rng(11), 6, 3, hidden=(8, 6, 4))
    x = Rng(12).normal(size=(3, 6))
    train_out, _ = model.forward(x, "train", Rng(13))
    eval_out, _ = model.forward(x, "eval")
    assert np.array_equal(train_out, eval_out)


def test_dropout_mean_matches_identity():
    # E[mask/keep] = 1, so averaging many masked passes recovers the input
    p = 0.3
    h = Rng(14).normal(size=(4, 10))
    rng = Rng(15)
    trials = 10_000
    acc = np.zeros_like(h)
    for _ in range(trials):
        acc += Mlp._drop_mult(h.shape, p, "train", rng) * h
    mean = acc / trials
    se = np.abs(h) * math.sqrt(p / (1.0 - p)) / math.sqrt(trials)
    assert np.all(np.abs(mean - h) <= 3.0 * se + 1e-12)


def test_dropout_requires_rng_in_train_mode():
    model = Mlp(Rng(16), 4, 2, hidden=(3,), hidden_dropout=0.5)
    with pytest.raises(ValueError, match="Rng"):
        model.forward(np.zeros((1, 4)), "train")


def test_forward_rejects_bad_mode_and_shape():
    model = LogisticRegression(Rng(17), 4, 2)
    with pytest.raises(ValueError, match="mode"):
        model.forward(np.zeros((1, 4)), "predict")
    with pytest.raises(ValueError):
        model.forward(np.zeros((1, 5)))


@pytest.mark.parametrize("kind,kw", [("logreg", {}), ("mlp", {"hidden": (8, 6, 4)})])
def test_end_to_end_gradients_match_finite_differences(kind, kw):
    rng = np.random.default_rng(20)
    specs = [LossSpec("neglog"), LossSpec("eerr"), LossSpec("leerr")]
    for case in range(6):
        d = int(rng.integers(3, 21))
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 5))
        model = build_model(kind, Rng(100 + case), d, k, **kw)
        x = rng.normal(size=(n, d))
        y = rng.integers(0, k, n)
        for spec in specs:
            preact, trace = model.forward(x, "eval")
            analytic = model.backward(
                trace, loss_grad_preact(spec, preact, y).grad_preact
            )
            numeric = fd_param_grads(model, x, y, spec)
            for a, b in zip(analytic, numeric):
                assert rel_err(a, b) < 1e-5


def test_build_model_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown model kind"):
        build_model("cnn", Rng(0), 3, 2)
    with pytest.raises(ValueError, match="logreg"):
        build_model("logreg", Rng(0), 3, 2, hidden=(4,))
