import copy
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
    model.weights[0][...] = 0.0
    preact, _ = model.forward(np.ones((2, 4)))
    assert np.array_equal(preact, np.zeros((2, 3)))


def test_logreg_bias_gradient_is_grad_preact_row():
    model = LogisticRegression(Rng(3), 5, 4)
    x = Rng(4).normal(size=(1, 5))
    preact, trace = model.forward(x)
    g = loss_grad_preact(LossSpec("neglog"), preact, [2]).grad_preact
    grads = model.split(model.backward(trace, g))
    assert np.allclose(grads[1], g[0], atol=1e-15)


def test_backward_zero_upstream_gives_zero_grads():
    for kind, kw in (("logreg", {}), ("mlp", {"hidden": (6, 5, 4)})):
        model = build_model(kind, Rng(5), 7, 3, **kw)
        x = Rng(6).normal(size=(4, 7))
        _, trace = model.forward(x)
        grad = model.backward(trace, np.zeros((4, 3)))
        assert grad.shape == model.theta.shape
        assert all(np.all(g == 0) for g in model.split(grad))


def test_mlp_dead_relu_blocks_incoming_weight_gradient():
    model = Mlp(Rng(7), 3, 2, hidden=(4,))
    x = Rng(8).normal(size=(1, 3))
    preact, trace = model.forward(x)
    dead = ~trace.relu_masks[0][0]
    if not dead.any():
        model.biases[0][0] = -100.0
        preact, trace = model.forward(x)
        dead = ~trace.relu_masks[0][0]
    grads = model.split(model.backward(trace, np.ones((1, 2))))
    assert np.all(grads[0][:, dead] == 0.0)


def test_mlp_without_hidden_layers_is_logistic_regression():
    mlp = Mlp(Rng(18), 5, 3, hidden=())
    logreg = LogisticRegression(Rng(18), 5, 3)
    for a, b in zip(mlp.params(), logreg.params(), strict=True):
        assert np.array_equal(a, b)
    x = Rng(19).normal(size=(4, 5))
    preact_m, trace_m = mlp.forward(x, Rng(20))
    preact_l, trace_l = logreg.forward(x)
    assert np.array_equal(preact_m, preact_l)
    g = Rng(21).normal(size=(4, 3))
    assert np.array_equal(mlp.theta, logreg.theta)
    assert np.array_equal(mlp.backward(trace_m, g), logreg.backward(trace_l, g))


def test_dropout_masks_are_drawn_only_with_an_rng():
    model = Mlp(Rng(22), 6, 3, hidden=(8, 6, 4), dropout=0.5)
    x = Rng(23).normal(size=(3, 6))
    _, trace = model.forward(x)
    assert trace.drop_mults == [None] * 4
    _, trace = model.forward(x, Rng(24))
    assert len(trace.drop_mults) == 4
    assert all(m is not None for m in trace.drop_mults)


def test_mlp_eval_mode_is_deterministic_despite_dropout():
    model = Mlp(Rng(9), 6, 3, hidden=(8, 6, 4), dropout=0.9)
    x = Rng(10).normal(size=(3, 6))
    a, _ = model.forward(x)
    b, _ = model.forward(x)
    assert np.array_equal(a, b)


def test_mlp_train_mode_without_dropout_equals_eval():
    model = Mlp(Rng(11), 6, 3, hidden=(8, 6, 4))
    x = Rng(12).normal(size=(3, 6))
    train_out, _ = model.forward(x, Rng(13))
    eval_out, _ = model.forward(x)
    assert np.array_equal(train_out, eval_out)


def test_dropout_mean_matches_identity():
    # E[mask/keep] = 1, so averaging many masked passes recovers the input
    p = 0.3
    h = Rng(14).normal(size=(4, 10))
    rng = Rng(15)
    trials = 10_000
    acc = np.zeros_like(h)
    for _ in range(trials):
        acc += Mlp._drop_mult(h.shape, p, [rng]) * h
    mean = acc / trials
    se = np.abs(h) * math.sqrt(p / (1.0 - p)) / math.sqrt(trials)
    assert np.all(np.abs(mean - h) <= 3.0 * se + 1e-12)


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
            preact, trace = model.forward(x)
            analytic = model.split(
                model.backward(trace, loss_grad_preact(spec, preact, y).grad_preact)
            )
            numeric = fd_param_grads(model, x, y, spec)
            for a, b in zip(analytic, numeric, strict=True):
                assert rel_err(a, b) < 1e-5


@pytest.mark.parametrize("dtype", [np.uint8, np.int64, np.bool_])
def test_forward_rejects_integer_codes(dtype):
    # IDX pixel codes must be scaled (Dataset.features) before they are features
    model = build_model("logreg", Rng(0), 4, 3)
    with pytest.raises(TypeError, match="float features"):
        model.forward(np.ones((2, 4), dtype=dtype))
    preact, _ = model.forward(np.ones((2, 4), dtype=np.float32))
    assert preact.dtype == np.float64


def test_build_model_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown model kind"):
        build_model("cnn", Rng(0), 3, 2)
    with pytest.raises(ValueError, match="logreg"):
        build_model("logreg", Rng(0), 3, 2, dropout=0.5)


def test_a_stack_of_networks_computes_each_network_bit_for_bit():
    dropouts = (0.0, 0.2, 0.5)
    seeds = (30, 40, 30)  # the first and last point start from one draw
    stack = build_model("mlp", [Rng(s) for s in seeds], 5, 3, hidden=(6, 4), dropout=dropouts)
    x = Rng(31).normal(size=(7, 5))
    preact, trace = stack.forward(x, [Rng(s + 2) for s in seeds])
    g = Rng(33).normal(size=preact.shape)
    grads = stack.split(stack.backward(trace, g))
    assert preact.shape == (3, 7, 3) and all(p.shape[0] == 3 for p in grads)
    for j, (seed, dropout) in enumerate(zip(seeds, dropouts)):
        # its own init draw, and its own uniform draws compared with its keep rate
        single = build_model("mlp", Rng(seed), 5, 3, hidden=(6, 4), dropout=dropout)
        own, own_trace = single.forward(x, Rng(seed + 2) if dropout else None)
        assert np.array_equal(preact[j], own)
        for a, b in zip(grads, single.split(single.backward(own_trace, g[j])), strict=True):
            assert np.array_equal(a[j], b)
    stack.take([2])
    assert stack.dropout.tolist() == [0.5]
    assert all(p.shape[0] == 1 for p in stack.params())


def test_a_stack_needs_one_random_stream_per_point():
    with pytest.raises(ValueError, match="2 random streams for 3 points"):
        build_model("mlp", [Rng(0), Rng(1)], 5, 3, hidden=(4,), dropout=(0.0, 0.1, 0.2))
    stack = build_model("mlp", [Rng(0), Rng(1)], 5, 3, hidden=(4,), dropout=(0.1, 0.2))
    with pytest.raises(ValueError, match="1 random streams for 2 points"):
        stack.forward(np.ones((2, 5)), Rng(2))


def test_take_keeps_the_points_it_names():
    draw = np.random.default_rng(0)
    for _ in range(200):
        n_points = int(draw.integers(1, 10))
        dropout = draw.random(n_points) / 2
        stack = build_model(
            "mlp", [Rng(j) for j in range(n_points)], 2, 2, hidden=(3,), dropout=dropout
        )
        lo, hi = sorted(draw.integers(0, n_points + 1, size=2))
        for points in (
            draw.random(n_points) < 0.5,  # a mask
            np.zeros(n_points, dtype=bool),  # an empty result
            slice(lo, hi),  # a slice, empty when lo == hi
            draw.integers(0, n_points, size=draw.integers(0, n_points + 1)),  # an index array
        ):
            part = copy.deepcopy(stack)
            part.take(points)
            assert np.array_equal(part.dropout, dropout[points])
            assert all(np.array_equal(a, b[points]) for a, b in zip(part.params(), stack.params()))


def test_params_are_views_of_one_block_in_params_order():
    shapes = ((5, 6), (6,), (6, 4), (4,), (4, 3), (3,))
    single = build_model("mlp", Rng(0), 5, 3, hidden=(6, 4))
    stack = build_model("mlp", [Rng(j) for j in range(3)], 5, 3, hidden=(6, 4), dropout=[0.0] * 3)
    for model, grid in ((single, ()), (stack, (3,))):
        params = model.params()
        assert [p.shape for p in params] == [grid + s for s in shapes]
        assert all(np.shares_memory(p, model.theta) for p in params)
        def flat():
            return np.concatenate([p.reshape(grid + (-1,)) for p in params], axis=-1)

        assert np.array_equal(flat(), model.theta)
        model.theta += 1.0  # an update in place reaches every view
        assert np.array_equal(flat(), model.theta)


def test_take_and_a_deep_copy_view_their_own_block():
    stack = build_model("mlp", [Rng(j) for j in range(4)], 5, 3, hidden=(6,), dropout=[0.1] * 4)
    before = stack.theta.copy()
    twin = copy.deepcopy(stack)  # the best-epoch copy of `train_run`
    part = copy.copy(stack)
    part.take([1, 3])
    for model in (twin, part):
        assert not np.shares_memory(model.theta, stack.theta)
        assert all(np.shares_memory(p, model.theta) for p in model.params())
    twin.weights[0][...] = 7.0
    part.biases[1][...] = -7.0
    assert np.array_equal(stack.theta, before)
    assert np.all(twin.theta[:, :30] == 7.0) and np.all(part.theta[:, -3:] == -7.0)
    stack.theta[...] = 0.0
    assert np.all(twin.weights[0] == 7.0) and np.all(part.biases[1] == -7.0)
    view = copy.copy(twin)
    view.take(slice(1, 3))  # a slice keeps a view of the block
    view.theta[...] = 5.0
    assert np.all(twin.theta[1:3] == 5.0) and np.all(twin.theta[[0, 3]] != 5.0)


def _reference_grads(model, trace, grad_preact):
    """The per-layer gradients as separate arrays: `x.T @ g` and the row sum
    of g per layer, then g back through the weights, dropout and ReLU."""
    grads = [None] * (2 * len(model.weights))
    g = grad_preact
    for i in range(len(model.weights) - 1, -1, -1):
        grads[2 * i] = np.swapaxes(trace.layer_inputs[i], -1, -2) @ g
        grads[2 * i + 1] = g.sum(axis=-2)
        if i > 0:
            g = g @ np.swapaxes(model.weights[i], -1, -2)
            if trace.drop_mults[i] is not None:
                g = g * trace.drop_mults[i]
            g = g * trace.relu_masks[i - 1]
    return grads


@pytest.mark.bits
@pytest.mark.parametrize(
    "points,d,hidden,k,n",
    [(90, 8, (), 2, 64), (9, 784, (), 10, 64), (2, 784, (300, 100), 10, 64), (1, 36, (16,), 6, 9)],
)
def test_the_split_gradient_block_is_the_per_layer_gradients_bit_for_bit(points, d, hidden, k, n):
    # The weight gradients are matmuls written into strided views of one
    # block; they must hold a plain matmul's bits at any BLAS thread count.
    dropout = [0.2 * (j % 2) for j in range(points)] if hidden else [0.0] * points
    kind = "mlp" if hidden else "logreg"
    stack = build_model(kind, [Rng(j) for j in range(points)], d, k, hidden=hidden, dropout=dropout)
    x = Rng(50).normal(size=(points, n, d))
    preact, trace = stack.forward(x, [Rng(60 + j) for j in range(points)] if hidden else None)
    g = Rng(51).normal(size=preact.shape)
    block = stack.backward(trace, g)
    assert block.shape == stack.theta.shape
    for a, b in zip(stack.split(block), _reference_grads(stack, trace, g), strict=True):
        assert a.shape == b.shape and np.array_equal(a, b)


def _reference_forward(model, x, rngs):
    """The allocating forward: every ReLU, dropout and bias step makes a new
    array, and the masks come from the points' stacked uniform draws."""
    h, layer_inputs, relu_masks, drop_mults = x, [], [], []
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        if i > 0:
            relu_masks.append(h > 0)
            h = h * relu_masks[-1]
        mult = None
        if rngs is not None:
            keep = 1.0 - model.dropout[..., None, None]
            u = np.stack([r.random(h.shape[-2:]) for r in rngs])
            mult = (u.reshape(model.dropout.shape + h.shape[-2:]) < keep) * (1.0 / keep)
            h = h * mult
        drop_mults.append(mult)
        layer_inputs.append(h)
        h = h @ w + b[..., None, :]
    return h, layer_inputs, relu_masks, drop_mults


def _stacks_and_inputs():
    """A dropout stack and a single network, each with a batch shared by
    every point and with one batch per point."""
    dropouts = (0.0, 0.2, 0.5)
    stack = build_model("mlp", [Rng(s) for s in (1, 2, 3)], 5, 3, hidden=(40, 6), dropout=dropouts)
    single = build_model("mlp", Rng(4), 5, 12, hidden=(7,), dropout=0.3)
    for model, streams in ((stack, (5, 6, 7)), (single, (8,))):
        for x in (Rng(9).normal(size=(11, 5)), Rng(10).normal(size=model.dropout.shape + (11, 5))):
            yield model, x, streams


@pytest.mark.bits
def test_forward_writes_neither_its_input_nor_across_calls():
    for model, x, streams in _stacks_and_inputs():
        before = x.copy()
        for rngs in (lambda: [Rng(s) for s in streams], lambda: None):
            first, _ = model.forward(x, rngs())
            second, _ = model.forward(x, rngs())
            assert np.array_equal(x, before)
            assert np.array_equal(first, second)


@pytest.mark.bits
def test_the_in_place_forward_is_the_allocating_forward_bit_for_bit():
    for model, x, streams in _stacks_and_inputs():
        for with_dropout in (True, False):
            def rngs():
                return [Rng(s) for s in streams] if with_dropout else None

            want = _reference_forward(model, x, rngs())
            preact, trace = model.forward(x, rngs())
            got = (preact, trace.layer_inputs, trace.relu_masks, trace.drop_mults)
            assert np.array_equal(got[0], want[0])
            for a_list, b_list in zip(got[1:], want[1:], strict=True):
                assert len(a_list) == len(b_list)
                for a, b in zip(a_list, b_list):
                    assert (a is None and b is None) or (
                        a.dtype == b.dtype and np.array_equal(a, b)
                    )


@pytest.mark.bits
def test_backward_leaves_the_trace_as_it_was():
    for model, x, streams in _stacks_and_inputs():
        preact, trace = model.forward(x, [Rng(s) for s in streams])
        held = [[a.copy() for a in arrays] for arrays in (trace.relu_masks, trace.drop_mults)]
        inputs = [a.copy() for a in trace.layer_inputs]
        g = Rng(12).normal(size=preact.shape)
        g_before = g.copy()
        model.backward(trace, g)
        for arrays, copies in zip((trace.relu_masks, trace.drop_mults, trace.layer_inputs),
                                  (*held, inputs)):
            assert all(np.array_equal(a, b) for a, b in zip(arrays, copies, strict=True))
        assert np.array_equal(g, g_before)
