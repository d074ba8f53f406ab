import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expacc.numerics import Rng
from expacc.optim import _PIECE, Adam, minibatches


def test_zero_gradient_leaves_params_unchanged():
    opt = Adam(lr=1e-3)
    p = np.array([1.0, -2.0, 3.0])
    opt.step(p, np.zeros(3))
    assert np.array_equal(p, [1.0, -2.0, 3.0])


def test_first_step_magnitude_is_learning_rate():
    # bias correction makes the first update lr * g / (|g| + eps)
    opt = Adam(lr=1e-4)
    p = np.array([0.0])
    opt.step(p, np.array([0.5]))
    assert p[0] == pytest.approx(-1e-4, rel=1e-6)


def test_trajectories_are_deterministic():
    grads = [np.linspace(-1, 1, 5) * s for s in (1.0, -0.3, 0.7)]

    def run():
        opt = Adam(lr=0.01)
        p = np.arange(5, dtype=np.float64)
        for g in grads:
            opt.step(p, g)
        return p

    assert np.array_equal(run(), run())


def test_quadratic_convergence_smoke():
    opt = Adam(lr=0.01)
    theta = np.array([1.0])
    for _ in range(2000):
        opt.step(theta, 2.0 * theta)
    assert abs(theta[0]) < 0.1


def test_shape_mismatch_rejected():
    opt = Adam(lr=0.01)
    p = np.zeros(3)
    opt.step(p, np.zeros(3))
    with pytest.raises(ValueError, match="shape"):
        opt.step(p, np.zeros(4))


def test_minibatch_examples():
    batches = minibatches(Rng(0), 10, 4)
    assert [len(b) for b in batches] == [4, 4, 2]
    assert sorted(np.concatenate(batches).tolist()) == list(range(10))

    batches = minibatches(Rng(0), 3, 10)
    assert len(batches) == 1 and len(batches[0]) == 3

    assert minibatches(Rng(0), 0, 4) == []


def test_minibatch_order_reproducible():
    a = minibatches(Rng(9), 50, 7)
    b = minibatches(Rng(9), 50, 7)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_minibatch_fresh_shuffle_each_call():
    rng = Rng(5)
    first = np.concatenate(minibatches(rng, 100, 10))
    second = np.concatenate(minibatches(rng, 100, 10))
    assert not np.array_equal(first, second)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 300), st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_minibatch_partition_property(n, batch_size, seed):
    batches = minibatches(Rng(seed), n, batch_size)
    flat = np.concatenate(batches) if batches else np.array([], dtype=int)
    assert sorted(flat.tolist()) == list(range(n))
    if batches:
        assert all(len(b) == batch_size for b in batches[:-1])
        assert 1 <= len(batches[-1]) <= batch_size


def reference_adam(lrs, params, grad_steps, take_after, keep):
    """The allocating update `lr * (m / bc1) / (sqrt(v / bc2) + eps)`, with
    `keep` taken out of the stack after step `take_after`."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    lrs = np.asarray(lrs, dtype=np.float64)
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grad_steps, start=1):
        if t == take_after + 1:
            lrs, params = lrs[keep], [p[keep] for p in params]
            m, v = [a[keep] for a in m], [a[keep] for a in v]
        if t > take_after:
            grads = [g[keep] for g in grads]
        bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
        for p, g, mi, vi in zip(params, grads, m, v):
            mi *= b1
            mi += (1.0 - b1) * g
            vi *= b2
            vi += (1.0 - b2) * (g * g)
            lr = lrs.reshape(lrs.shape + (1,) * (p.ndim - 1))
            p -= lr * (mi / bc1) / (np.sqrt(vi / bc2) + eps)
    return params


@pytest.mark.bits
def test_in_place_step_is_bit_identical_to_the_allocating_expression():
    rng = np.random.default_rng(11)
    for lrs, shape, take_after, keep in (
        # a stack whose second point leaves after step 4, and a zero-lr point
        ([1e-3, 0.3, 2e-2, 0.0], (4, 53), 4, [True, False, True, True]),
        # a single network's block under one rate
        (0.3, (53,), None, None),
        # wider than one piece: a single network's block in column ranges
        (0.3, (2 * _PIECE + 17,), None, None),
        # column ranges of each long row, a zero-lr point and a point leaving
        ([1e-3, 0.3, 0.0], (3, 2 * _PIECE + 5), 4, [True, False, True]),
        # rows that fit in a piece, more than a piece in all: one piece, the
        # shape of a wide MNIST logreg stack
        (np.geomspace(1e-4, 0.5, 20), (20, 7850), None, None),
    ):
        start = rng.normal(size=shape)
        grad_steps = [rng.normal(size=shape) * 10.0 ** rng.integers(-6, 3, size=shape)
                      for _ in range(9)]
        last = len(grad_steps) if take_after is None else take_after
        want, = reference_adam(lrs, [start.copy()], [[g] for g in grad_steps], last, keep)

        theta, opt = start.copy(), Adam(lrs)
        for t, grad in enumerate(grad_steps, start=1):
            if t == last + 1:
                # a point leaves the stack: the pieces follow the new shape
                opt.take(keep)
                theta = theta[keep]
            if t > last:
                grad = grad[keep]
            opt.step(theta, grad)
        assert theta.shape == want.shape
        assert take_after is None or theta.shape[0] == sum(keep)
        assert np.array_equal(theta, want)


@pytest.mark.bits
def test_a_step_in_pieces_holds_one_piece_of_scratch():
    # a four-piece block: the moments are block-sized, the scratch pair one piece
    theta, grad = np.zeros(4 * _PIECE), np.ones(4 * _PIECE)
    opt = Adam(1e-3)
    tracemalloc.start()
    try:
        opt.step(theta, grad)
        held, first = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        opt.step(theta, grad)
        _, later = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    piece_bytes = _PIECE * theta.itemsize
    # the first step: the two moments and a scratch pair, and a little for Python objects
    assert held <= first <= 2 * theta.nbytes + 2 * piece_bytes + piece_bytes // 4
    assert later - held <= 2 * piece_bytes
