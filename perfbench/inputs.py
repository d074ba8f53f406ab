"""Seeded synthetic inputs in the real file formats, and the workload configs.

No UCI or MNIST file ships with the repository, so every workload runs on
stand-ins that the real loaders accept unchanged:

* a headerless pima CSV (768 rows, 8 numeric columns, label 0/1 last) that
  meets the bundled `pima` schema, including its expected counts;
* MNIST IDX image/label pairs (28x28 uint8, 10 classes) for a training pool
  and a test set drawn from one class structure.

The class structure is built so that every loss ends strictly between zero
error and chance: the two pima classes overlap by a fixed Gaussian margin
along a fixed direction, and each synthetic digit blends its own class
prototype with a random other one, so a known share of images really looks
like another class.  The same seed always gives the same bytes.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

PIMA_ROWS, PIMA_FEATURES, PIMA_POSITIVE = 768, 8, 268
# Class means sit this many noise standard deviations apart, for a Bayes
# error of Phi(-1.6 / 2) ~ 0.21, close to published pima error rates.
PIMA_SEPARATION = 1.6
# The direction the classes differ along is fixed, weighted like the real
# file (glucose first, then BMI and age); the seed draws labels and noise.
# How long early stopping runs depends on this direction against the fixed
# initialization, so a seed-drawn direction made the work of a run vary
# more from seed to seed (see README.md).
PIMA_DIRECTION = (1.0, 2.0, 0.5, 0.3, 0.4, 1.2, 0.6, 0.9)
# Scale, offset and printed decimals of each column, shaped like the real
# pima file (pregnancies, glucose, blood pressure, skin, insulin, BMI,
# pedigree, age); the loader z-scores them away again.
PIMA_COLUMNS = (
    (3.4, 3.8, 0), (32.0, 121.0, 0), (19.0, 69.0, 0), (16.0, 20.5, 0),
    (115.0, 80.0, 0), (7.9, 32.0, 1), (0.33, 0.47, 3), (11.8, 33.2, 0),
)

IDX_SIDE = 28
MNIST_CLASSES = 10
# Each image is (1 - m) * own prototype + m * other prototype with m drawn
# uniformly from [0, MIX_MAX): images with m > 0.5 look like the other class.
MIX_MAX = 0.6
PIXEL_NOISE = 0.2
# Row chunk for image generation, which bounds its float64 working memory.
CHUNK = 4096


def write_pima_csv(path: str, seed: int) -> None:
    """768 rows that pass `builtin_schema("pima")`, 268 of them positive."""
    g = np.random.default_rng([seed, 1])
    labels = np.zeros(PIMA_ROWS, dtype=np.int64)
    labels[:PIMA_POSITIVE] = 1
    g.shuffle(labels)
    direction = np.array(PIMA_DIRECTION) / np.linalg.norm(PIMA_DIRECTION)
    z = g.standard_normal((PIMA_ROWS, PIMA_FEATURES))
    z += np.outer(np.where(labels == 1, 0.5, -0.5) * PIMA_SEPARATION, direction)
    with open(path, "w") as fh:
        for row, label in zip(z, labels):
            cells = [
                f"{max(scale * v + offset, 0.0):.{decimals}f}"
                for v, (scale, offset, decimals) in zip(row, PIMA_COLUMNS)
            ]
            fh.write(",".join(cells) + f",{label}\n")


def _prototypes(g: np.random.Generator) -> np.ndarray:
    """One smooth stroke image per class, values in [0, 1]."""
    yy, xx = np.mgrid[0:IDX_SIDE, 0:IDX_SIDE].astype(np.float64)
    protos = np.zeros((MNIST_CLASSES, IDX_SIDE, IDX_SIDE))
    for c in range(MNIST_CLASSES):
        for _ in range(4):
            cy, cx = g.uniform(6.0, 22.0, size=2)
            sy, sx = g.uniform(1.5, 5.0, size=2)
            protos[c] += np.exp(-((yy - cy) ** 2) / (2 * sy**2) - ((xx - cx) ** 2) / (2 * sx**2))
        protos[c] /= protos[c].max()
    return protos.reshape(MNIST_CLASSES, -1)


def _images(g: np.random.Generator, protos: np.ndarray, n: int):
    labels = g.integers(0, MNIST_CLASSES, size=n).astype(np.uint8)
    pixels = np.empty((n, IDX_SIDE * IDX_SIDE), dtype=np.uint8)
    for lo in range(0, n, CHUNK):
        y = labels[lo : lo + CHUNK].astype(np.int64)
        other = (y + g.integers(1, MNIST_CLASSES, size=y.size)) % MNIST_CLASSES
        mix = g.uniform(0.0, MIX_MAX, size=(y.size, 1))
        img = (1.0 - mix) * protos[y] + mix * protos[other]
        img += PIXEL_NOISE * g.standard_normal(img.shape)
        pixels[lo : lo + CHUNK] = np.rint(np.clip(img, 0.0, 1.0) * 255.0)
    return pixels, labels


def _write_idx(dir_path: str, prefix: str, pixels: np.ndarray, labels: np.ndarray) -> None:
    n = pixels.shape[0]
    with open(os.path.join(dir_path, f"{prefix}-images-idx3-ubyte"), "wb") as fh:
        fh.write(struct.pack(">iiii", 0x803, n, IDX_SIDE, IDX_SIDE))
        fh.write(pixels.tobytes())
    with open(os.path.join(dir_path, f"{prefix}-labels-idx1-ubyte"), "wb") as fh:
        fh.write(struct.pack(">ii", 0x801, n))
        fh.write(labels.tobytes())


def write_mnist_idx(dir_path: str, seed: int, n_pool: int, n_test: int) -> None:
    """`train-*` and `t10k-*` IDX pairs sharing one set of class prototypes."""
    g = np.random.default_rng([seed, 2])
    protos = _prototypes(g)
    for prefix, n in (("train", n_pool), ("t10k", n_test)):
        _write_idx(dir_path, prefix, *_images(g, protos, n))


_MNIST_DATASET = """\
dataset:
  name: mnist
  train_images: train-images-idx3-ubyte
  train_labels: train-labels-idx1-ubyte
  test_images: t10k-images-idx3-ubyte
  test_labels: t10k-labels-idx1-ubyte
"""


@dataclass(frozen=True)
class Workload:
    """One closed-loop batch job: a config plus the inputs it reads.

    `chance` is the error of guessing a class uniformly, the ceiling the
    correctness gate holds every test error under; `cells` is the number of
    (fold, loss) cells one run trains.
    """

    name: str
    config: str
    chance: float
    cells: int
    write_inputs: Callable[[str, int], None]


# The settings of configs/pima_logreg.yaml, with only the data path and the
# output directory pointed at the benchmark's own files.
LOGREG_UCI_GRID = Workload(
    "logreg_uci_grid",
    """\
dataset:
  name: pima
  path: pima.csv
model:
  kind: logreg
losses: [neglog, eerr, leerr]
train:
  batch_size: 64
  min_epochs: 100
  patience: 15
  lr_grid: [1.0e-4, 1.0e-3, 1.0e-2]
replication:
  scheme: five_by_two
noise:
  p: 0.0
seed: 11
out_dir: out
""",
    chance=0.5,
    cells=30,
    write_inputs=lambda d, seed: write_pima_csv(os.path.join(d, "pima.csv"), seed),
)

MLP_MNIST_DROPOUT = Workload(
    "mlp_mnist_dropout",
    _MNIST_DATASET
    + """\
model:
  kind: mlp
  hidden: [300, 200, 100]
losses: [neglog, leerr]
train:
  lr: 1.0e-3
  dropout: 0.2
  batch_size: 64
  max_epochs: 3
replication:
  scheme: kfold
  folds: 10
  max_folds: 2
noise:
  p: 0.0
seed: 21
out_dir: out
""",
    chance=0.9,
    cells=4,
    write_inputs=lambda d, seed: write_mnist_idx(d, seed, n_pool=6000, n_test=1000),
)

# A 30,000-image pool makes each cell's 27,000-row float64 train copy
# (169 MB) larger than the machine's 105 MB last-level cache.
LOGREG_MNIST_NOISE = Workload(
    "logreg_mnist_noise",
    _MNIST_DATASET
    + """\
model:
  kind: logreg
losses: [neglog, eerr, leerr]
train:
  lr: 1.0e-4
  batch_size: 64
  max_epochs: 1
replication:
  scheme: kfold
  folds: 10
  max_folds: 3
noise:
  p: 0.05
seed: 11
out_dir: out
""",
    chance=0.9,
    cells=9,
    write_inputs=lambda d, seed: write_mnist_idx(d, seed, n_pool=30000, n_test=5000),
)

WORKLOADS = {w.name: w for w in (LOGREG_UCI_GRID, MLP_MNIST_DROPOUT, LOGREG_MNIST_NOISE)}


def prepare(workload: Workload, dir_path: str, seed: int) -> str:
    """Write the workload's inputs and config into `dir_path`; returns the config path."""
    os.makedirs(dir_path, exist_ok=True)
    workload.write_inputs(dir_path, seed)
    path = os.path.join(dir_path, "config.yaml")
    with open(path, "w") as fh:
        fh.write(workload.config)
    return path
