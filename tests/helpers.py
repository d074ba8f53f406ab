"""Shared test utilities: synthetic datasets, gradient oracles, data gating."""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np
import pytest

from expacc import Dataset, Folds, Rows
from expacc.losses import loss_grad_preact
from expacc.numerics import Rng

DATA_ENV = "EXPACC_DATA_DIR"


def write_idx_pair(dir_path, pixels, labels, prefix=""):
    """Craft an IDX image/label file pair byte by byte."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    img_path = Path(dir_path) / f"{prefix}images-idx3-ubyte"
    lbl_path = Path(dir_path) / f"{prefix}labels-idx1-ubyte"
    img_path.write_bytes(struct.pack(">iiii", 0x803, n, rows, cols) + pixels.tobytes())
    lbl_path.write_bytes(struct.pack(">ii", 0x801, len(labels)) + bytes(labels))
    return img_path, lbl_path


def two_gaussians(seed: int, n: int, d: int, delta: float, name: str = "gauss2") -> Dataset:
    """Balanced binary dataset of two unit-covariance Gaussians.

    Class means sit `delta` apart along the first axis, so the Bayes error
    is Phi(-delta / 2), computable independently of any classifier.
    """
    rng = Rng(seed)
    y = rng.integers(2, size=n)
    x = rng.normal(size=(n, d))
    x[:, 0] += np.where(y == 1, delta / 2.0, -delta / 2.0)
    return Dataset(x, y, 2, name)


def blobs(seed: int, n: int, d: int, k: int, spread: float = 1.0, name: str = "blobs") -> Dataset:
    """k Gaussian clusters with random centers; labels are cluster ids."""
    rng = Rng(seed)
    centers = rng.uniform(-spread, spread, size=(k, d))
    y = rng.integers(k, size=n)
    x = centers[y] + rng.normal(size=(n, d))
    return Dataset(x, y, k, name)


def one_fold(ds: Dataset, train_idx, dev_idx, test_idx):
    """The (train, dev, test) splits `train_run` takes for one fold of `ds`."""
    return Folds([Rows(ds, train_idx)]), [Rows(ds, dev_idx)], [Rows(ds, test_idx)]


def fd_loss_grad(spec, a: np.ndarray, r: int, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of the fused softmax+loss, one instance."""
    g = np.zeros_like(a)
    for j in range(a.size):
        up, down = a.copy(), a.copy()
        up[j] += h
        down[j] -= h
        lp = loss_grad_preact(spec, up[None, :], [r]).mean_loss
        lm = loss_grad_preact(spec, down[None, :], [r]).mean_loss
        g[j] = (lp - lm) / (2.0 * h)
    return g


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Gradient-check error: worst component against the gradient scale.

    The scale is floored at 1 because central differences carry absolute
    noise of order eps * |loss| / h regardless of how small the gradient is.
    """
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    return float(np.max(np.abs(analytic - numeric)) / max(1.0, np.max(np.abs(numeric))))


def fd_param_grads(model, x, y, spec, h: float = 1e-5):
    """Finite differences of the batch-mean loss over every model parameter."""
    def batch_loss():
        preact, _ = model.forward(x)
        return loss_grad_preact(spec, preact, y).mean_loss

    grads = []
    for p in model.params():
        flat = p.ravel()
        num = np.zeros_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            lp = batch_loss()
            flat[j] = orig - h
            lm = batch_loss()
            flat[j] = orig
            num[j] = (lp - lm) / (2.0 * h)
        grads.append(num.reshape(p.shape))
    return grads


def data_root() -> Path | None:
    root = os.environ.get(DATA_ENV)
    return Path(root) if root else None


def require_mnist():
    """Paths to the four official IDX files, or skip with instructions."""
    root = data_root()
    names = (
        "train-images-idx3-ubyte",
        "train-labels-idx1-ubyte",
        "t10k-images-idx3-ubyte",
        "t10k-labels-idx1-ubyte",
    )
    if root is None:
        pytest.skip(f"set {DATA_ENV} to a directory containing mnist/ (see README)")
    paths = [root / "mnist" / n for n in names]
    missing = [str(p) for p in paths if not p.is_file()]
    if missing:
        pytest.skip(f"missing MNIST files: {missing}")
    return paths


def require_uci(name: str) -> Path:
    root = data_root()
    if root is None:
        pytest.skip(f"set {DATA_ENV} to a directory containing uci/{name}.csv (see README)")
    path = root / "uci" / f"{name}.csv"
    if not path.is_file():
        pytest.skip(f"missing UCI file: {path}")
    return path
