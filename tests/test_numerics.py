import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from expacc.models import LogisticRegression
from expacc.numerics import Rng, sigmoid, softmax_rows

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
