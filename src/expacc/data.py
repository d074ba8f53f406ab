"""Dataset ingestion, normalization, label-noise injection, and fold plans.

Datasets are immutable after loading and safe to share across threads; noise
injection returns a fresh dataset rather than mutating.  A `Rows` names some
rows of a dataset by an index array without copying them: a training split
is the fold's pool plus its train indices, and `Dataset.subset` copies only
the small splits (dev, test) that are evaluated whole.

File formats accepted:

* MNIST IDX binaries, big-endian, image magic 0x00000803 and label magic
  0x00000801.  Pixels are scaled to [0, 1].
* UCI-style headerless delimited text.  A small schema descriptor (YAML)
  names the label column, optional dropped columns, the label vocabulary,
  and the expected (instances, features, classes) counts.  Features are
  z-scored per column against the loaded pool's own statistics (population
  variance), so the pool ends up mean 0 / variance 1 and any later split of
  it reuses those statistics.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass, field, fields
from importlib import resources

import numpy as np
import yaml

from .numerics import Rng

__all__ = [
    "CountMismatchError",
    "CsvCellError",
    "DataError",
    "Dataset",
    "EmptyDataError",
    "IdxMagicError",
    "IdxTruncatedError",
    "Rows",
    "SplitPlan",
    "UciSchema",
    "UnknownLabelError",
    "builtin_schema",
    "inject_label_noise",
    "load_mnist",
    "load_uci_csv",
    "make_folds",
    "zscore",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


class DataError(Exception):
    """Base class for dataset loading failures."""


class IdxMagicError(DataError):
    pass


class IdxTruncatedError(DataError):
    pass


class CountMismatchError(DataError):
    pass


class CsvCellError(DataError):
    pass


class UnknownLabelError(DataError):
    pass


class EmptyDataError(DataError):
    pass


@dataclass
class Dataset:
    """Feature matrix (one instance per row) with integer class labels."""

    x: np.ndarray
    labels: np.ndarray
    k: int
    name: str

    def __post_init__(self):
        self.x = np.ascontiguousarray(self.x, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.x.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.x.shape}")
        if self.labels.shape != (self.x.shape[0],):
            raise CountMismatchError(
                f"{self.name}: {self.x.shape[0]} instances but {self.labels.shape[0]} labels"
            )
        if not np.isfinite(self.x).all():
            raise ValueError(f"{self.name}: non-finite feature values")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.k):
            raise ValueError(f"{self.name}: labels outside 0..{self.k - 1}")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def subset(self, indices, name: str | None = None) -> "Dataset":
        idx = np.asarray(indices)
        return Dataset(self.x[idx], self.labels[idx], self.k, name or self.name)


@dataclass
class Rows:
    """The rows `index` of `ds`, in that order, without a copy of them."""

    ds: Dataset
    index: np.ndarray

    def __post_init__(self):
        self.index = np.asarray(self.index)
        if self.index.ndim != 1 or self.index.dtype.kind not in "iu":
            raise ValueError(
                f"row index must be a 1-D integer array, got {self.index.dtype} "
                f"of shape {self.index.shape}"
            )

    @property
    def n(self) -> int:
        return self.index.size

    @property
    def d(self) -> int:
        return self.ds.d

    @property
    def k(self) -> int:
        return self.ds.k


# --- MNIST IDX ---------------------------------------------------------------


def _read_idx(path: str, expected_magic: int, ndim: int, what: str):
    """The dimensions of an IDX file and its payload as a read-only uint8 view
    of the file's bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 4:
        raise IdxTruncatedError(f"{path}: header truncated ({len(raw)} bytes)")
    magic = struct.unpack(">i", raw[:4])[0]
    if magic != expected_magic:
        raise IdxMagicError(
            f"{path}: magic number 0x{magic:08x}, expected 0x{expected_magic:08x}"
        )
    header = 4 * (1 + ndim)
    if len(raw) < header:
        raise IdxTruncatedError(f"{path}: header truncated ({len(raw)} bytes)")
    dims = struct.unpack(f">{ndim}i", raw[4:header])
    size = math.prod(dims)
    if len(raw) - header != size:
        raise IdxTruncatedError(
            f"{path}: expected {size} {what} bytes, found {len(raw) - header}"
        )
    return dims, np.frombuffer(raw, dtype=np.uint8, offset=header)


def load_mnist(images_path: str, labels_path: str, name: str = "mnist") -> Dataset:
    """Parse an IDX image/label file pair into a flat [0, 1]-scaled dataset."""
    (count, rows, cols), pixels = _read_idx(images_path, IDX_IMAGE_MAGIC, 3, "pixel")
    (label_count,), labels = _read_idx(labels_path, IDX_LABEL_MAGIC, 1, "label")
    if label_count != count:
        raise CountMismatchError(
            f"{images_path} has {count} images but {labels_path} has {label_count} labels"
        )
    x = pixels.reshape(count, rows * cols)
    return Dataset(x.astype(np.float64) / 255.0, labels.astype(np.int64), k=10, name=name)


# --- UCI delimited text -------------------------------------------------------


@dataclass
class UciSchema:
    """Descriptor for one headerless delimited dataset file."""

    name: str
    label_column: int = -1
    delimiter: str = ","  # "whitespace" splits on any run of blanks
    drop_columns: tuple = ()
    label_values: tuple | None = None  # fixed label vocabulary and ordering
    keep_labels: tuple | None = None  # raw label whitelist (row filter)
    expected: dict = field(default_factory=dict)  # instances / features / classes

    def __post_init__(self):
        unknown = set(self.expected) - {"instances", "features", "classes"}
        if unknown:
            raise ValueError(f"{self.name}: unknown expected keys {sorted(unknown)}")

    @classmethod
    def from_file(cls, path: str) -> "UciSchema":
        with open(path) as fh:
            try:
                raw = yaml.safe_load(fh)
            except yaml.YAMLError as exc:
                raise ValueError(f"{path}: {exc}") from None
        return cls.from_dict(raw, source=path)

    @classmethod
    def from_dict(cls, raw: dict, source: str = "<schema>") -> "UciSchema":
        if not isinstance(raw, dict):
            raise ValueError(f"{source}: expected a mapping, got {type(raw).__name__}")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"{source}: unknown schema keys {sorted(unknown)}")
        if "name" not in raw:
            raise ValueError(f"{source}: missing required key 'name'")
        return cls(
            name=raw["name"],
            label_column=int(raw.get("label_column", -1)),
            delimiter=raw.get("delimiter", ","),
            drop_columns=tuple(raw.get("drop_columns") or ()),
            label_values=tuple(str(v) for v in raw["label_values"])
            if raw.get("label_values")
            else None,
            keep_labels=tuple(str(v) for v in raw["keep_labels"])
            if raw.get("keep_labels")
            else None,
            expected=dict(raw.get("expected") or {}),
        )


def builtin_schema(name: str) -> UciSchema:
    """Load one of the schema descriptors bundled with the package."""
    ref = resources.files("expacc") / "schemas" / f"{name}.yaml"
    if not ref.is_file():
        raise FileNotFoundError(f"no bundled schema named {name!r}")
    return UciSchema.from_dict(yaml.safe_load(ref.read_text()), source=str(ref))


def zscore(x: np.ndarray) -> np.ndarray:
    """Standardize columns against their own mean and population standard
    deviation; constant columns map to 0."""
    x = np.asarray(x, dtype=np.float64)
    std = x.std(axis=0)
    return (x - x.mean(axis=0)) / np.where(std > 0, std, 1.0)


def _split_row(line: str, delimiter: str):
    if delimiter == "whitespace":
        return line.split()
    return next(csv.reader([line], delimiter=delimiter))


def load_uci_csv(path: str, schema: UciSchema) -> Dataset:
    """Load a headerless delimited file per its schema and z-score features."""
    rows = []
    raw_labels = []
    keep = set(schema.keep_labels) if schema.keep_labels else None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = _split_row(line, schema.delimiter)
            label_idx = schema.label_column % len(cells)
            label = cells[label_idx].strip()
            if keep is not None and label not in keep:
                continue
            feats = []
            for col, cell in enumerate(cells):
                if col == label_idx or col in schema.drop_columns:
                    continue
                try:
                    feats.append(float(cell))
                except ValueError:
                    raise CsvCellError(
                        f"{path}:{lineno}: non-numeric cell {cell!r} in column {col}"
                    ) from None
            rows.append(feats)
            raw_labels.append(label)

    if not rows:
        raise EmptyDataError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise CsvCellError(f"{path}: inconsistent column counts {sorted(widths)}")

    vocab = schema.label_values or tuple(sorted(set(raw_labels)))
    index = {v: i for i, v in enumerate(vocab)}
    try:
        labels = np.array([index[v] for v in raw_labels], dtype=np.int64)
    except KeyError as exc:
        raise UnknownLabelError(
            f"{path}: label {exc.args[0]!r} not in vocabulary {list(vocab)}"
        ) from None

    x = zscore(np.array(rows, dtype=np.float64))
    ds = Dataset(x, labels, k=len(vocab), name=schema.name)
    _check_expected(ds, schema, path)
    return ds


def _check_expected(ds: Dataset, schema: UciSchema, path: str) -> None:
    actual = {"instances": ds.n, "features": ds.d, "classes": ds.k}
    for key, want in schema.expected.items():
        if actual[key] != want:
            raise CountMismatchError(
                f"{path}: {key}={actual[key]}, schema {schema.name} expects {want}"
            )


# --- label noise ---------------------------------------------------------------


def inject_label_noise(rng: Rng, ds: Dataset, p: float) -> Dataset:
    """Independently redraw each label uniformly over all classes w.p. `p`.

    The redraw may coincide with the original label, so the expected fraction
    of changed labels is p * (k-1)/k.  Features are shared, labels are a new
    array.  Apply this to training/development pools only; held-out test
    datasets stay untouched by construction.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"noise probability must lie in [0, 1], got {p}")
    if p == 0.0:
        return ds
    hit = rng.uniform(0.0, 1.0, size=ds.n) < p
    labels = ds.labels.copy()
    labels[hit] = rng.integers(ds.k, size=int(hit.sum()))
    return Dataset(ds.x, labels, ds.k, ds.name)


# --- fold plans ----------------------------------------------------------------


@dataclass
class SplitPlan:
    """Train/dev index pairs over a pool, plus an optional in-pool test set.

    When `test` is None the experiment either evaluates on a separate test
    dataset or, failing that, on each fold's dev indices (the 2-fold CV
    convention, where the held-out half provides both early stopping and the
    test measurement).
    """

    folds: list
    test: np.ndarray | None = None


def make_folds(rng: Rng, n: int, scheme: str, **kw) -> SplitPlan:
    """Build a replication plan over `n` pool instances.

    Schemes:
      * ``kfold``        -- k disjoint dev folds, complement as train (kw: k)
      * ``five_by_two``  -- five independent 2-fold splits, 10 pairs total
      * ``fixed``        -- one shuffled split (kw: train_size, dev_size)
    """
    if scheme == "kfold":
        k = int(kw.pop("k"))
        _reject_extra(kw, scheme)
        if k < 2:
            raise ValueError(f"kfold needs k >= 2, got {k}")
        if n < k:
            raise ValueError(f"kfold(k={k}) needs at least {k} instances, got {n}")
        perm = rng.permutation(n)
        pieces = np.array_split(perm, k)
        folds = []
        for i in range(k):
            dev = pieces[i]
            train = np.concatenate([pieces[j] for j in range(k) if j != i])
            folds.append((train, dev))
        return SplitPlan(folds)

    if scheme == "five_by_two":
        _reject_extra(kw, scheme)
        if n < 2:
            raise ValueError(f"five_by_two needs at least 2 instances, got {n}")
        folds = []
        for _ in range(5):
            perm = rng.permutation(n)
            first, second = perm[: n // 2], perm[n // 2 :]
            folds.append((first, second))
            folds.append((second, first))
        return SplitPlan(folds)

    if scheme == "fixed":
        train_size = int(kw.pop("train_size"))
        dev_size = int(kw.pop("dev_size"))
        _reject_extra(kw, scheme)
        if train_size < 1 or dev_size < 1:
            raise ValueError("fixed split sizes must be >= 1")
        if train_size + dev_size > n:
            raise ValueError(
                f"fixed split needs {train_size + dev_size} instances, pool has {n}"
            )
        perm = rng.permutation(n)
        rest = perm[train_size + dev_size :]
        return SplitPlan(
            [(perm[:train_size], perm[train_size : train_size + dev_size])],
            test=rest if rest.size else None,
        )

    raise ValueError(f"unknown scheme {scheme!r}")


def _reject_extra(kw: dict, scheme: str) -> None:
    if kw:
        raise ValueError(f"unexpected arguments for {scheme}: {sorted(kw)}")
