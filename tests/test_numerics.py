import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from expacc.models import LogisticRegression
from expacc.numerics import (
    SHORT_AXIS,
    Rng,
    argmax_last,
    by_column,
    reduce_last,
    sigmoid,
    softmax_rows,
    sum_rows,
)

finite_rows = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(2, 8)),
    elements=st.floats(-50, 50),
)


def test_matmul_dimension_mismatch():
    # the model's plain `@` rejects a wrong feature count by itself
    model = LogisticRegression(Rng(0), 3, 2)
    with pytest.raises(ValueError, match="mismatch"):
        model.forward(np.ones((2, 4)))


def test_softmax_symmetry():
    assert np.allclose(softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]], atol=1e-15)


def test_softmax_known_row():
    out = softmax_rows(np.array([[1.0, 2.0, 3.0]]))[0]
    assert np.allclose(out, [0.09003057, 0.24472847, 0.66524096], atol=1e-5)


def test_softmax_huge_logit_is_finite():
    out = softmax_rows(np.array([[1000.0, 0.0]]))[0]
    assert np.isfinite(out).all()
    assert out[0] == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(finite_rows)
def test_softmax_rows_sum_to_one(a):
    sums = softmax_rows(a).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(finite_rows, st.floats(-30, 30))
def test_softmax_shift_invariance(a, c):
    assert np.max(np.abs(softmax_rows(a + c) - softmax_rows(a))) < 1e-12


def test_sigmoid_anchors():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(50.0) == pytest.approx(1.0, abs=1e-12)
    assert sigmoid(1.0) == pytest.approx(0.731059, abs=1e-6)


@settings(max_examples=50, deadline=None)
@given(st.floats(-700, 700))
def test_sigmoid_complement(a):
    assert sigmoid(a) + sigmoid(-a) == pytest.approx(1.0, abs=1e-12)


def test_sigmoid_matches_binary_softmax():
    for a in (-3.0, -0.2, 0.0, 1.7, 12.0):
        via_softmax = softmax_rows(np.array([[a, 0.0]]))[0, 0]
        assert sigmoid(a) == pytest.approx(via_softmax, abs=1e-12)


def test_rng_same_seed_same_stream():
    a, b = Rng(42), Rng(42)
    assert np.array_equal(a.uniform(0, 1, size=1000), b.uniform(0, 1, size=1000))
    assert np.array_equal(a.permutation(257), b.permutation(257))


def test_rng_children_are_independent_and_reproducible():
    a = Rng(7).child(1, 2)
    b = Rng(7).child(1, 2)
    other = Rng(7).child(1, 3)
    assert a.seed == b.seed
    assert a.seed != other.seed
    assert np.array_equal(a.normal(size=5), b.normal(size=5))


def test_rng_shuffle_single_element():
    assert Rng(0).permutation(1).tolist() == [0]


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63 + 5])
def test_rng_draws_are_numpys_pcg64_stream(seed):
    # checked against numpy itself, not golden numbers, so it holds on any
    # numpy release
    ours, reference = Rng(seed), np.random.Generator(np.random.PCG64(seed))
    assert np.array_equal(ours.uniform(-0.5, 0.5, size=64), reference.uniform(-0.5, 0.5, size=64))
    assert np.array_equal(ours.permutation(97), reference.permutation(97))
    assert np.array_equal(ours.integers(7, size=64), reference.integers(7, size=64))


@pytest.mark.parametrize("seed, keys", [(0, ()), (7, (1, 2)), (2**40, (3, 0, 9))])
def test_rng_child_seed_is_the_seed_sequence_rule(seed, keys):
    want = np.random.SeedSequence([seed, *keys]).generate_state(1, np.uint64)[0]
    child = Rng(seed).child(*keys)
    assert child.seed == int(want)
    assert np.array_equal(child.uniform(0, 1, size=8), Rng(int(want)).uniform(0, 1, size=8))


# Awkward entries for the class-axis reductions: NaN, infinities, signed
# zeros and repeated values (ties).
SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.0, 1.0, -1.0])


def class_axis_values(shape, seed):
    """Values spread over 16 decades, about a third replaced by `SPECIAL`."""
    draw = np.random.default_rng(seed)
    a = draw.normal(size=shape) * 10.0 ** draw.integers(-8, 8, size=shape)
    special = draw.random(shape) < 0.35
    a[special] = draw.choice(SPECIAL, size=int(special.sum()))
    return a


def assert_same_bits(ours, numpys):
    assert type(ours) is type(numpys)
    ours, numpys = np.asarray(ours), np.asarray(numpys)
    assert (ours.shape, ours.dtype) == (numpys.shape, numpys.dtype)
    assert ours.tobytes() == numpys.tobytes()


# one row, a batch, a stack of batches (the bench's logreg shapes), and
# zero-size leading axes
LEADS = [(), (200,), (6, 40), (90, 64), (9, 384), (0,), (3, 0)]


@pytest.mark.parametrize("k", range(1, 13))
@pytest.mark.parametrize("lead", LEADS)
def test_class_axis_reductions_are_numpys_bits(k, lead):
    # below SHORT_AXIS the column loop runs, from it on numpy's own call
    for seed in range(3):
        a = class_axis_values(lead + (k,), seed)
        ties = np.random.default_rng(seed).choice([-1.0, -0.0, 0.0, 1.0], size=lead + (k,))
        for values in (a, ties):
            with np.errstate(invalid="ignore"):  # inf - inf in sums
                assert_same_bits(reduce_last(np.add, values), values.sum(axis=-1))
                assert_same_bits(
                    np.sqrt(reduce_last(np.add, values * values)), np.linalg.norm(values, axis=-1)
                )
            assert_same_bits(argmax_last(values), values.argmax(axis=-1))
            # numpy's own max gives a zero maximum either sign: with its SIMD
            # loops turned off, the 3-column loop keeps the first of 0.0 and
            # -0.0 and the 2-column (elementwise) loop the second.  Adding 0.0
            # maps -0.0 to 0.0 and changes no other value.
            assert_same_bits(reduce_last(np.maximum, values) + 0.0, values.max(axis=-1) + 0.0)


@pytest.mark.parametrize("k", range(1, 13))
@pytest.mark.parametrize("lead", LEADS)
def test_by_column_is_numpys_broadcast_bit_for_bit(k, lead):
    a = class_axis_values(lead + (k,), k)
    per_row = class_axis_values(lead + (1,), k + 1)  # one value per row
    # one value per column for every row, as a bias is
    per_col = class_axis_values(lead[:-1] + (1, k) if lead else (k,), k + 2)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for ufunc in (np.add, np.subtract, np.multiply, np.divide):
            for b in (per_row, per_col):
                want = ufunc(a, b)
                assert_same_bits(by_column(ufunc, a, b), want)
                in_place = a.copy()
                assert by_column(ufunc, in_place, b, out=in_place) is in_place
                assert_same_bits(in_place, want)


@pytest.mark.parametrize("k", range(1, 13))
def test_softmax_rows_is_numpys_formula_bit_for_bit(k):
    # the sign of a zero row maximum never reaches softmax: x - 0.0 and
    # x - -0.0 differ only at x = -0.0, and exp maps both zeros to 1
    a = class_axis_values((4, 30, k), k)
    a[~np.isfinite(a)] = 0.0
    ties = np.random.default_rng(k).choice([-1.0, -0.0, 0.0, 1.0], size=(4, 30, k))
    for values in (a, ties):
        e = np.exp(values - values.max(axis=-1, keepdims=True))
        want = e / e.sum(axis=-1, keepdims=True)
        assert softmax_rows(values).tobytes() == want.tobytes()
        assert softmax_rows(values[0, 0]).tobytes() == want[0, 0].tobytes()  # one row


def test_an_empty_class_axis_goes_to_numpy():
    a = np.zeros((3, 0))
    assert_same_bits(reduce_last(np.add, a), a.sum(axis=-1))
    with pytest.raises(ValueError):
        reduce_last(np.maximum, a)
    with pytest.raises(ValueError):
        argmax_last(a)


def test_short_axis_is_where_numpys_sum_stops_adding_in_order():
    def in_order(a):
        total = 0.0 + a[..., 0]
        for j in range(1, a.shape[-1]):
            total = total + a[..., j]
        return total

    for k in range(1, SHORT_AXIS + 1):
        a = np.random.default_rng(k).normal(size=(2000, k)) * 10.0 ** np.arange(k)
        same = in_order(a) == a.sum(axis=-1)
        assert same.all() if k < SHORT_AXIS else not same.all(), k


def row_sum_values(points, n, k, seed):
    """(points, n, k) values spread over 16 decades, with one column of -0.0
    only, one of subnormals, one of +-1e308 (sums that overflow) and one
    with `SPECIAL` values as `class_axis_values` places them."""
    draw = np.random.default_rng(seed)
    shape = (points, n)
    g = draw.normal(size=shape + (k,)) * 10.0 ** draw.integers(-8, 8, size=shape + (k,))
    special = [
        np.full(shape, -0.0),
        draw.normal(size=shape) * 1e-310,
        draw.choice([1e308, -1e308], size=shape),
        class_axis_values(shape, seed),
    ]
    for j, column in enumerate(special[:k]):
        g[..., j] = column
    return g


@pytest.mark.parametrize("k", range(1, 13))
@pytest.mark.parametrize("n", [1, 7, 8, 9, 64, 384])
@pytest.mark.parametrize("points", [1, 90])
def test_sum_rows_is_numpys_row_sum(k, n, points):
    # NaNs compare as values: with numpy's SIMD loops turned off, k = 5..7
    # can give a NaN of another payload.  A NaN gradient comes from a point
    # whose loss is not finite, and that point leaves the stack before the
    # Adam step, so no NaN payload reaches a parameter.
    for seed in range(2):
        g = row_sum_values(points, n, k, seed)
        with np.errstate(invalid="ignore", over="ignore"):
            ours, numpys = sum_rows(g), g.sum(axis=-2)
        nan = np.isnan(numpys)
        assert ours.shape == numpys.shape and np.array_equal(np.isnan(ours), nan)
        assert ours[~nan].tobytes() == numpys[~nan].tobytes()
        assert ours[..., 0].tobytes() == np.zeros(points).tobytes()  # 0.0, not -0.0


def test_sum_rows_leaves_one_column_long_rows_and_other_layouts_to_numpy():
    class Spy(np.ndarray):
        def sum(self, *args, **kwargs):
            summed.append(self.shape)
            return np.asarray(self).sum(*args, **kwargs)

    summed = []
    for k in range(1, 13):
        sum_rows(np.ones((3, 5, k)).view(Spy))
    assert [shape[-1] for shape in summed] == [1, *range(SHORT_AXIS, 13)]
    summed.clear()
    sum_rows(np.ones((3, 2, 5)).swapaxes(-1, -2).view(Spy))  # not C-ordered
    sum_rows(np.ones((3, 0, 2)).view(Spy))  # no rows
    assert summed == [(3, 5, 2), (3, 0, 2)]
    # one column is summed pairwise, which the accumulate would not match
    draw = np.random.default_rng(0)
    g = draw.normal(size=(384, 1)) * 10.0 ** draw.integers(-8, 8, size=(384, 1))
    assert (0.0 + np.add.accumulate(g, axis=-2)[-1]).tobytes() != g.sum(axis=-2).tobytes()
    assert sum_rows(g).tobytes() == g.sum(axis=-2).tobytes()
