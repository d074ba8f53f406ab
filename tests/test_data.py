import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expacc.data import (
    CountMismatchError,
    CsvCellError,
    Dataset,
    EmptyDataError,
    IdxMagicError,
    IdxTruncatedError,
    Rows,
    UciSchema,
    UnknownLabelError,
    builtin_schema,
    inject_label_noise,
    load_mnist,
    load_uci_csv,
    make_folds,
)
from expacc.numerics import Rng
from helpers import write_idx_pair


def test_idx_golden_fixture_roundtrips(tmp_path):
    pixels = np.array(
        [
            [[0, 255], [128, 1]],
            [[7, 0], [0, 200]],
            [[255, 255], [255, 255]],
        ],
        dtype=np.uint8,
    )
    img, lbl = write_idx_pair(tmp_path, pixels, [3, 0, 9])
    ds = load_mnist(img, lbl, name="fixture")
    assert (ds.n, ds.d, ds.k) == (3, 4, 10)
    assert np.array_equal(ds.labels, [3, 0, 9])
    assert np.array_equal(ds.x, pixels.reshape(3, 4).astype(np.float64) / 255.0)
    assert ds.x.min() >= 0.0 and ds.x.max() <= 1.0


def test_idx_magic_number_mismatch(tmp_path):
    img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
    with pytest.raises(IdxMagicError, match="0x00000803"):
        load_mnist(lbl, lbl)  # image magic expected, label file given
    with pytest.raises(IdxMagicError, match="0x00000801"):
        load_mnist(img, img)


def test_idx_truncated_file(tmp_path):
    img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
    img.write_bytes(img.read_bytes()[:-3])
    with pytest.raises(IdxTruncatedError, match="pixel bytes"):
        load_mnist(img, lbl)


def test_idx_header_and_label_truncation(tmp_path):
    img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
    whole = img.read_bytes()
    img.write_bytes(whole[:10])  # cut inside the dimensions
    with pytest.raises(IdxTruncatedError, match="header truncated"):
        load_mnist(img, lbl)
    img.write_bytes(whole)
    lbl.write_bytes(lbl.read_bytes() + b"\x00")  # a payload longer than its count
    with pytest.raises(IdxTruncatedError, match="expected 2 label bytes, found 3"):
        load_mnist(img, lbl)


def test_idx_count_mismatch(tmp_path):
    img, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
    _, lbl3 = write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8), [0, 1, 2], prefix="x-")
    with pytest.raises(CountMismatchError, match="2 images"):
        load_mnist(img, lbl3)


def test_uci_two_row_standardization(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("1.0,5.0,7.0,a\n3.0,5.0,9.0,b\n")
    schema = UciSchema(name="tiny")
    ds = load_uci_csv(path, schema)
    # two distinct values become +-1; constant columns become 0
    assert np.allclose(np.abs(ds.x[:, 0]), 1.0)
    assert np.allclose(ds.x[:, 1], 0.0)
    assert np.allclose(np.abs(ds.x[:, 2]), 1.0)
    assert ds.labels.tolist() == [0, 1] and ds.k == 2


def test_uci_zscore_pool_statistics(tmp_path):
    rng = np.random.default_rng(0)
    rows = rng.normal(5.0, 3.0, size=(60, 4))
    labels = rng.integers(0, 2, 60)
    path = tmp_path / "gen.csv"
    path.write_text(
        "\n".join(",".join(map(str, r)) + f",{l}" for r, l in zip(rows, labels))
    )
    ds = load_uci_csv(path, UciSchema(name="gen"))
    assert np.max(np.abs(ds.x.mean(axis=0))) < 1e-9
    assert np.max(np.abs(ds.x.var(axis=0) - 1.0)) < 1e-6


def test_uci_schema_drop_and_filter(tmp_path):
    path = tmp_path / "musk-like.csv"
    path.write_text("MOL1,CONF1,1.0,2.0,1\nMOL2,CONF2,3.0,4.0,0\nMOL3,CONF3,5.0,6.0,1\n")
    schema = UciSchema(name="musk-like", drop_columns=(0, 1))
    ds = load_uci_csv(path, schema)
    assert (ds.n, ds.d, ds.k) == (3, 2, 2)

    path2 = tmp_path / "sat-like.txt"
    path2.write_text("1 2 4\n5 6 7\n9 10 4\n11 12 3\n")
    schema2 = UciSchema(name="sat-like", delimiter="whitespace", keep_labels=("4", "7"))
    ds2 = load_uci_csv(path2, schema2)
    assert ds2.n == 3 and ds2.k == 2
    assert ds2.labels.tolist() == [0, 1, 0]


def test_uci_distinct_load_errors(tmp_path):
    bad_cell = tmp_path / "bad.csv"
    bad_cell.write_text("1.0,x,0\n")
    with pytest.raises(CsvCellError, match="non-numeric"):
        load_uci_csv(bad_cell, UciSchema(name="bad"))

    unknown = tmp_path / "unknown.csv"
    unknown.write_text("1.0,2.0,maybe\n")
    with pytest.raises(UnknownLabelError, match="maybe"):
        load_uci_csv(unknown, UciSchema(name="u", label_values=("yes", "no")))

    empty = tmp_path / "empty.csv"
    empty.write_text("\n\n")
    with pytest.raises(EmptyDataError):
        load_uci_csv(empty, UciSchema(name="e"))


def test_uci_expected_count_enforcement(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("1.0,0\n2.0,1\n")
    schema = UciSchema(name="short", expected={"instances": 768})
    with pytest.raises(CountMismatchError, match="instances"):
        load_uci_csv(path, schema)


def test_builtin_schemas_cover_the_paper_uci_suite():
    expectations = {
        "pima": (768, 8, 2),
        "magic": (19020, 10, 2),
        "musk2": (6598, 166, 2),
        "polyadenylation": (6371, 169, 2),
        "ringnorm": (7400, 20, 2),
        "satellite47": (2134, 36, 2),
    }
    for name, (n, d, k) in expectations.items():
        schema = builtin_schema(name)
        assert schema.expected == {"instances": n, "features": d, "classes": k}
    with pytest.raises(FileNotFoundError):
        builtin_schema("imagenet")


def make_dataset(seed, n, k=10, d=3):
    rng = Rng(seed)
    return Dataset(rng.normal(size=(n, d)), rng.integers(k, size=n), k, "synt")


def test_noise_zero_probability_is_identity():
    ds = make_dataset(0, 50)
    assert inject_label_noise(Rng(1), ds, 0.0) is ds


def test_noise_full_redraw_changes_half_for_binary():
    ds = make_dataset(2, 100_000, k=2)
    noisy = inject_label_noise(Rng(3), ds, 1.0)
    frac = (noisy.labels != ds.labels).mean()
    sigma = (0.25 / ds.n) ** 0.5
    assert abs(frac - 0.5) <= 3.0 * sigma


def test_noise_small_probability_redraw_statistics():
    ds = make_dataset(4, 100_000, k=10)
    noisy = inject_label_noise(Rng(5), ds, 0.05)
    frac = (noisy.labels != ds.labels).mean()
    expected = 0.05 * 0.9
    sigma = (expected * (1 - expected) / ds.n) ** 0.5
    assert abs(frac - expected) <= 3.0 * sigma


def test_noise_touches_labels_only_and_is_reproducible():
    ds = make_dataset(6, 500)
    a = inject_label_noise(Rng(7), ds, 0.3)
    b = inject_label_noise(Rng(7), ds, 0.3)
    assert a.x is ds.x
    assert np.array_equal(a.labels, b.labels)
    assert not np.array_equal(a.labels, ds.labels)
    assert np.array_equal(ds.labels, make_dataset(6, 500).labels)  # source untouched


def test_kfold_partition_example():
    plan = make_folds(Rng(0), 10, "kfold", k=5)
    assert len(plan.folds) == 5
    union = np.concatenate([dev for _, dev in plan.folds])
    assert sorted(union.tolist()) == list(range(10))
    assert all(len(dev) == 2 for _, dev in plan.folds)
    for train, dev in plan.folds:
        assert set(train) & set(dev) == set()
        assert len(train) + len(dev) == 10


def test_kfold_mnist_ratio():
    plan = make_folds(Rng(1), 60_000, "kfold", k=10)
    assert all(len(dev) == 6000 for _, dev in plan.folds)
    assert all(len(train) == 54_000 for train, _ in plan.folds)


def test_five_by_two_geometry():
    plan = make_folds(Rng(2), 100, "five_by_two")
    assert len(plan.folds) == 10
    for i in range(0, 10, 2):
        train_a, dev_a = plan.folds[i]
        train_b, dev_b = plan.folds[i + 1]
        assert len(train_a) == len(dev_a) == 50
        assert np.array_equal(train_a, dev_b) and np.array_equal(dev_a, train_b)


def test_fixed_split_remainder_becomes_test():
    plan = make_folds(Rng(3), 20, "fixed", train_size=10, dev_size=5)
    (train, dev), test = plan.folds[0], plan.test
    assert len(train) == 10 and len(dev) == 5 and len(test) == 5
    assert sorted(np.concatenate([train, dev, test]).tolist()) == list(range(20))


def test_fold_errors():
    with pytest.raises(ValueError, match="kfold"):
        make_folds(Rng(0), 3, "kfold", k=5)
    with pytest.raises(ValueError, match="unknown scheme"):
        make_folds(Rng(0), 10, "loocv")
    with pytest.raises(ValueError, match="fixed split needs"):
        make_folds(Rng(0), 10, "fixed", train_size=8, dev_size=5)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 200), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_kfold_disjoint_coverage_property(n, k, seed):
    if n < k:
        n = k
    plan = make_folds(Rng(seed), n, "kfold", k=k)
    union = np.concatenate([dev for _, dev in plan.folds])
    assert sorted(union.tolist()) == list(range(n))
    for train, dev in plan.folds:
        assert not set(train.tolist()) & set(dev.tolist())
        assert len(train) + len(dev) == n


def test_rows_name_pool_rows_without_copying_them():
    ds = Dataset(np.arange(12.0).reshape(6, 2), [0, 1, 2, 0, 1, 2], 3, "pool")
    rows = Rows(ds, np.array([4, 0, 2]))
    assert (rows.n, rows.d, rows.k) == (3, 2, 3)
    assert rows.ds is ds
    assert np.array_equal(ds.x[rows.index], ds.subset([4, 0, 2]).x)
    for bad in (np.array([True, False] * 3), np.zeros((2, 2), dtype=int), np.array([0.5])):
        with pytest.raises(ValueError, match="1-D integer"):
            Rows(ds, bad)
