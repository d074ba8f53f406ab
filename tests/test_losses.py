import math

import numpy as np
import pytest

from expacc.losses import (
    LossSpec,
    bayes_optimal,
    emit_loss_curves,
    loss_grad_preact,
    loss_value,
)
from helpers import fd_loss_grad, rel_err

NEGLOG, EERR, LEERR = LossSpec("neglog"), LossSpec("eerr"), LossSpec("leerr")
ALL = (NEGLOG, EERR, LEERR)


def test_loss_spec_validation():
    with pytest.raises(ValueError, match="unknown loss kind"):
        LossSpec("hinge")
    with pytest.raises(ValueError, match="alpha"):
        LossSpec("leerr", alpha=0.0)


def test_loss_value_anchors():
    one_hot = np.array([0.0, 1.0])
    assert loss_value(NEGLOG, one_hot, 1) == pytest.approx(0.0, abs=1e-9)
    assert loss_value(EERR, [0.2, 0.8], 1) == -0.8
    # uniform over 10 classes: -(0.1 + 0.1 * ln 0.1)
    assert loss_value(LEERR, np.full(10, 0.1), 4) == pytest.approx(0.130259, abs=1e-6)


def test_loss_value_rejects_bad_distributions():
    with pytest.raises(ValueError, match="sums"):
        loss_value(NEGLOG, [0.5, 0.4], 0)
    with pytest.raises(ValueError, match="out of range"):
        loss_value(NEGLOG, [0.5, 0.5], 2)


def test_loss_value_total_at_zero_probability():
    # clamped at 1e-12 rather than diverging
    val = loss_value(NEGLOG, [1.0, 0.0], 1)
    assert val == pytest.approx(-math.log(1e-12))


def test_loss_value_strictly_decreasing_in_true_probability():
    grid = np.linspace(0.01, 0.99, 70)
    for spec in ALL:
        values = [loss_value(spec, [p, 1.0 - p], 0) for p in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_grad_preact_frozen_examples():
    a = np.array([[0.0, 0.0]])
    cases = [(NEGLOG, [-0.5, 0.5]), (EERR, [-0.25, 0.25]), (LEERR, [-0.3, 0.3])]
    for spec, expected in cases:
        out = loss_grad_preact(spec, a, [0])
        assert np.allclose(out.grad_preact[0], expected, atol=1e-12)


def test_grad_vanishes_at_the_shared_optimum():
    a = np.array([[40.0, 0.0, 0.0]])
    for spec in ALL:
        out = loss_grad_preact(spec, a, [0])
        assert np.max(np.abs(out.grad_preact)) < 1e-12


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 11))
        a = rng.uniform(-8.0, 8.0, k)
        r = int(rng.integers(k))
        for spec in ALL:
            analytic = loss_grad_preact(spec, a[None, :], [r]).grad_preact[0]
            numeric = fd_loss_grad(spec, a, r)
            worst = max(worst, rel_err(analytic, numeric))
    assert worst < 1e-6


def test_leaky_is_eerr_plus_alpha_neglog():
    rng = np.random.default_rng(5)
    for k in range(2, 11):
        a = rng.uniform(-8.0, 8.0, (500, k))
        r = rng.integers(0, k, 500)
        le = loss_grad_preact(LEERR, a, r)
        ee = loss_grad_preact(EERR, a, r)
        nl = loss_grad_preact(NEGLOG, a, r)
        assert le.mean_loss == pytest.approx(ee.mean_loss + 0.1 * nl.mean_loss, abs=1e-12)
        combined = ee.grad_preact + 0.1 * nl.grad_preact
        assert np.max(np.abs(le.grad_preact - combined)) < 1e-12


def test_eerr_norm_never_exceeds_neglog_norm():
    rng = np.random.default_rng(6)
    a = rng.uniform(-8.0, 8.0, (300, 7))
    r = rng.integers(0, 7, 300)
    ee = loss_grad_preact(EERR, a, r).per_instance_norms
    nl = loss_grad_preact(NEGLOG, a, r).per_instance_norms
    assert (ee <= nl + 1e-15).all()


def test_batch_reduction_is_the_mean():
    a = np.array([[1.0, -1.0], [0.3, 0.3], [-2.0, 0.5]])
    r = np.array([0, 1, 1])
    full = loss_grad_preact(NEGLOG, a, r)
    singles = [loss_grad_preact(NEGLOG, a[i : i + 1], r[i : i + 1]) for i in range(3)]
    assert full.mean_loss == pytest.approx(np.mean([s.mean_loss for s in singles]), abs=1e-14)
    stacked = np.vstack([s.grad_preact for s in singles]) / 3.0
    assert np.allclose(full.grad_preact, stacked, atol=1e-15)
    assert full.per_instance_norms.mean() == pytest.approx(
        np.mean([s.per_instance_norms.mean() for s in singles]), abs=1e-14
    )


def test_curve_table_a_anchors():
    header_a, table_a, _, _ = emit_loss_curves(1000)
    assert header_a == ("p", "neglog", "eerr", "leerr")
    assert table_a.shape == (1000, 4)
    p = table_a[:, 0]
    assert p.min() > 0.0 and p.max() < 1.0
    # perfect prediction: every curve approaches 0 at the p -> 1 end of the
    # open grid (within the 5e-4 granularity)
    assert np.all(np.abs(table_a[-1, 1:]) < 2e-3)
    assert np.all(table_a[:, 1:] > 0.0)
    closest = np.argmin(np.abs(p - 0.5))
    # grid granularity at size 1000 puts the nearest point 5e-4 from 0.5
    assert table_a[closest, 1] == pytest.approx(math.log(2.0), abs=2e-3)


def test_curve_table_b_saturation_behaviour():
    _, _, header_b, table_b = emit_loss_curves(1000)
    assert header_b == ("a", "neglog_sig", "eerr_sig", "leerr_sig",
                        "d_neglog", "d_eerr", "d_leerr")
    row = table_b[0]
    assert row[0] == -10.0
    assert abs(row[4]) == pytest.approx(1.0, abs=1e-3)   # neglog stays steep
    assert abs(row[5]) < 1e-3                            # eerr flatlines
    assert abs(row[6]) == pytest.approx(0.1, abs=1e-3)   # leerr keeps the leak


def test_curve_table_b_derivatives_match_finite_differences():
    _, _, _, table_b = emit_loss_curves(2001)
    a = table_b[:, 0]
    h = a[1] - a[0]
    for col_val, col_grad in ((1, 4), (2, 5), (3, 6)):
        numeric = np.gradient(table_b[:, col_val], h)
        inner = slice(5, -5)
        assert np.max(np.abs(numeric[inner] - table_b[inner, col_grad])) < 1e-4


def test_emit_loss_curves_rejects_tiny_grid():
    with pytest.raises(ValueError, match="grid_size"):
        emit_loss_curves(1)


def test_bayes_optimal_eerr_returns_vertex():
    assert np.array_equal(bayes_optimal(EERR, [0.7, 0.3], 0.01), [1.0, 0.0])


def test_bayes_optimal_neglog_recovers_conditional():
    out = bayes_optimal(NEGLOG, [0.7, 0.3], 0.01)
    assert np.allclose(out, [0.7, 0.3], atol=0.01)


def test_bayes_optimal_deterministic_label():
    for spec in ALL:
        assert np.array_equal(bayes_optimal(spec, [1.0, 0.0], 0.05), [1.0, 0.0])


def test_bayes_optimal_three_classes():
    out = bayes_optimal(EERR, [0.2, 0.5, 0.3], 0.05)
    assert np.array_equal(out, [0.0, 1.0, 0.0])
    out = bayes_optimal(NEGLOG, [0.2, 0.5, 0.3], 0.02)
    assert np.allclose(out, [0.2, 0.5, 0.3], atol=0.02)


def test_bayes_optimal_rejects_large_k():
    with pytest.raises(ValueError, match="k in"):
        bayes_optimal(EERR, [0.25, 0.25, 0.25, 0.25], 0.1)
