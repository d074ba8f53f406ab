"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria over MNIST / UCI benchmark files need the real datasets on
disk under $EXPACC_DATA_DIR (layout in the README); they skip with precise
instructions otherwise.  The two MLP replications are marked `slow`
(roughly an hour together) and are deselected by default.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from expacc.cli import main
from expacc.data import builtin_schema, load_mnist, load_uci_csv, make_folds
from expacc.harness import TrainConfig, replicate
from expacc.losses import LossSpec, bayes_optimal, emit_loss_curves, loss_grad_preact
from expacc.models import build_model
from expacc.numerics import Rng
from expacc.stats import paired_t_test, t_cdf
from helpers import DATA_ENV, fd_param_grads, rel_err, require_mnist, require_uci, write_idx_pair

NEGLOG, EERR, LEERR = LossSpec("neglog"), LossSpec("eerr"), LossSpec("leerr")


def test_criterion_01_gradient_check_suite():
    """Analytic gradients match central finite differences (h=1e-5)."""
    rng = np.random.default_rng(2024)
    specs = (NEGLOG, EERR, LEERR)
    worst = 0.0
    for case in range(200):
        kind = "logreg" if case % 2 == 0 else "mlp"
        kw = {} if kind == "logreg" else {"hidden": (8, 6, 4)}
        d = int(rng.integers(2, 21))
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 4))
        spec = specs[case % 3]
        for attempt in range(20):
            model = build_model(kind, Rng(int(rng.integers(2**31))), d, k, **kw)
            x = rng.normal(size=(n, d))
            y = rng.integers(0, k, n)
            if kind == "logreg":
                break
            # keep hidden pre-activations away from the ReLU kink, where
            # central differences are invalid
            _, trace = model.forward(x)
            margins = [
                np.min(np.abs(inp @ w + b))
                for inp, w, b in zip(
                    trace.layer_inputs[:-1], model.weights[:-1], model.biases[:-1]
                )
            ]
            if min(margins) > 1e-4:
                break
        preact, trace = model.forward(x)
        grad = model.backward(trace, loss_grad_preact(spec, preact, y).grad_preact)
        numeric = fd_param_grads(model, x, y, spec)
        for a, b in zip(model.split(grad), numeric, strict=True):
            worst = max(worst, rel_err(a, b))
    assert worst < 1e-5
    print(f"\nPASS criterion 1: gradient check, max rel err {worst:.2e} < 1e-5")


def test_criterion_02_leaky_linearity_identity():
    """leerr = eerr + 0.1 * neglog for values and gradients, to 1e-12."""
    rng = np.random.default_rng(7)
    worst_value = 0.0
    worst_grad = 0.0
    total = 0
    for k in range(2, 12):
        n = 1000
        a = rng.uniform(-8.0, 8.0, (n, k))
        r = rng.integers(0, k, n)
        le = loss_grad_preact(LEERR, a, r)
        ee = loss_grad_preact(EERR, a, r)
        nl = loss_grad_preact(NEGLOG, a, r)
        worst_value = max(worst_value, abs(le.mean_loss - (ee.mean_loss + 0.1 * nl.mean_loss)))
        worst_grad = max(
            worst_grad,
            float(np.max(np.abs(le.grad_preact - (ee.grad_preact + 0.1 * nl.grad_preact)))),
        )
        total += n
    assert total == 10_000
    assert worst_value < 1e-12 and worst_grad < 1e-12
    print(f"\nPASS criterion 2: linearity identity, value err {worst_value:.1e}, "
          f"grad err {worst_grad:.1e} < 1e-12 over 10^4 draws")


def test_criterion_03_saturation_derivatives():
    """At a=-10 the neglog slope is ~1 while the eerr slope vanishes."""
    _, _, header, table = emit_loss_curves(1000)
    assert table[0, 0] == -10.0
    d_neglog = table[0, header.index("d_neglog")]
    d_eerr = table[0, header.index("d_eerr")]
    assert abs(abs(d_neglog) - 1.0) < 1e-3
    assert abs(d_eerr) < 1e-3
    print(f"\nPASS criterion 3: |d neglog|={abs(d_neglog):.6f} (~1), "
          f"|d eerr|={abs(d_eerr):.2e} (~0) at a=-10")


def test_criterion_04_gradient_norm_ratio_on_mnist():
    """Fresh Xavier logistic regression on MNIST: neglog/eerr norms >= 10."""
    train_images, train_labels, _, _ = require_mnist()
    pool = load_mnist(train_images, train_labels)
    assert (pool.n, pool.d, pool.k) == (60_000, 784, 10)
    plan = make_folds(Rng(0).child(2), pool.n, "kfold", k=10)
    train_idx, _ = plan.folds[0]
    model = build_model("logreg", Rng(1).child(0), pool.d, pool.k)
    preact, _ = model.forward(pool.features(train_idx))
    neglog, eerr = (
        loss_grad_preact(spec, preact, pool.labels[train_idx]).per_instance_norms.mean()
        for spec in (NEGLOG, EERR)
    )
    ratio = neglog / eerr
    assert ratio >= 10.0
    print(f"\nPASS criterion 4: grad-norm ratio neglog/eerr = {ratio:.1f} >= 10")


# CI-tier stand-ins for criteria 4-6: synthetic files with the real files'
# shapes, under a stand-in $EXPACC_DATA_DIR, driven through the bundled
# configs and the CLI end to end.  They check the pipeline (loaders, config,
# replication, artifacts), not the published numbers.

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _bundled_config(tmp_path, monkeypatch, name, train=None, replication=None):
    """The bundled config `name` with its `train` / `replication` keys
    updated, writing into `tmp_path`, which stands in for $EXPACC_DATA_DIR."""
    monkeypatch.setenv(DATA_ENV, str(tmp_path))
    raw = yaml.safe_load((CONFIGS / name).read_text())
    raw["train"].update(train or {})
    raw["replication"].update(replication or {})
    raw["out_dir"] = str(tmp_path / "out")
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return path, raw


def _assert_manifest_matches(out_dir):
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["files"]
    for rel, digest in manifest["files"].items():
        assert hashlib.sha256((out_dir / rel).read_bytes()).hexdigest() == digest, rel


def test_criterion_04_stand_in_gradnorms_on_mnist_shaped_idx(tmp_path, monkeypatch):
    """`expacc gradnorms` on the bundled MNIST config with 28x28 IDX files."""
    rng = np.random.default_rng(4)
    mnist = tmp_path / "mnist"
    mnist.mkdir()
    for prefix, n in (("train-", 600), ("t10k-", 100)):
        labels = rng.integers(0, 10, n)
        pixels = rng.integers(0, 64, (n, 28, 28)) + 16 * labels[:, None, None]
        write_idx_pair(mnist, pixels, labels.tolist(), prefix=prefix)
    config, _ = _bundled_config(
        tmp_path, monkeypatch, "mnist_gradnorms.yaml", train={"max_epochs": 3}
    )
    assert main(["gradnorms", str(config)]) == 0
    out = tmp_path / "out"
    with open(out / "gradnorms.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "neglog_norm", "eerr_norm", "leerr_norm"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
    assert float(rows[1][2]) < float(rows[1][1])
    _assert_manifest_matches(out)
    print("\nPASS criterion 4 stand-in: gradnorms on MNIST-shaped IDX files")


@pytest.mark.parametrize(
    "name, n, d, labels",
    [("pima", 768, 8, ("0", "1")), ("magic", 19_020, 10, ("g", "h"))],
    ids=["pima", "magic"],
)
def test_criterion_05_06_stand_in_run_on_uci_shaped_csv(tmp_path, monkeypatch, name, n, d, labels):
    """`expacc run` on the bundled UCI config with a schema-shaped CSV."""
    rng = np.random.default_rng(5)
    y = rng.integers(0, 2, n)
    x = rng.normal(size=(n, d)) + 0.8 * y[:, None]
    (tmp_path / "uci").mkdir()
    (tmp_path / "uci" / f"{name}.csv").write_text(
        "".join(",".join(f"{v:.4f}" for v in row) + f",{labels[c]}\n" for row, c in zip(x, y))
    )
    config, raw = _bundled_config(
        tmp_path, monkeypatch, f"{name}_logreg.yaml",
        train={"min_epochs": 1, "patience": 1, "max_epochs": 3},
        replication={"max_folds": 2},
    )
    assert main(["run", str(config)]) == 0
    out = tmp_path / "out"
    with open(out / "runs.csv", newline="") as fh:
        runs = list(csv.DictReader(fh))
    assert len(runs) == 2 * len(raw["losses"])
    for row in runs:
        assert row["error"] == ""
        assert float(row["lr"]) in raw["train"]["lr_grid"]
    assert (out / "summary.csv").is_file()
    _assert_manifest_matches(out)
    print(f"\nPASS criterion 5/6 stand-in: run on a {n}x{d} {name}-shaped CSV")


def _uci_replicates(name, losses, master_seed=11):
    path = require_uci(name)
    pool = load_uci_csv(path, builtin_schema(name))
    plan = make_folds(Rng(master_seed).child(2), pool.n, "five_by_two")
    cfgs = [
        TrainConfig(loss=spec, lr=lr, batch_size=64, min_epochs=100, patience=15)
        for spec in losses
        for lr in (1e-4, 1e-3, 1e-2)
    ]
    outcomes = replicate("logreg", pool, plan, cfgs, master_seed=master_seed)
    assert all(o.ok for o in outcomes), [o.error for o in outcomes if not o.ok]
    return {
        spec.name: 100.0 * np.mean(
            [o.result.test_error for o in outcomes if o.loss == spec.name]
        )
        for spec in losses
    }


def test_criterion_05_pima_logistic_regression():
    """5x2-CV pima within +-2.5 points of the published 23.54 / 23.50."""
    means = _uci_replicates("pima", [NEGLOG, LEERR])
    assert abs(means["neglog"] - 23.54) <= 2.5, means
    assert abs(means["leerr"] - 23.50) <= 2.5, means
    print(f"\nPASS criterion 5: pima neglog {means['neglog']:.2f} (ref 23.54), "
          f"leerr {means['leerr']:.2f} (ref 23.50), tolerance 2.5")


def test_criterion_06_magic_logistic_regression():
    """5x2-CV magic within +-1.5 points and leerr <= neglog in mean."""
    means = _uci_replicates("magic", [NEGLOG, LEERR])
    assert abs(means["neglog"] - 20.84) <= 1.5, means
    assert abs(means["leerr"] - 20.52) <= 1.5, means
    assert means["leerr"] <= means["neglog"], means
    print(f"\nPASS criterion 6: magic neglog {means['neglog']:.2f} (ref 20.84), "
          f"leerr {means['leerr']:.2f} (ref 20.52), ordering holds")


@pytest.fixture(scope="module")
def mnist_pool_and_test():
    paths = require_mnist()
    pool = load_mnist(paths[0], paths[1])
    test = load_mnist(paths[2], paths[3], name="mnist-test")
    assert (pool.n, test.n) == (60_000, 10_000)
    return pool, test


def _mnist_mlp_means(pool, test, noise_p, master_seed=21):
    plan = make_folds(Rng(master_seed).child(2), pool.n, "kfold", k=10)
    cfgs = [
        TrainConfig(
            loss=spec, lr=1e-3, batch_size=64, patience=30,
            # desk-scale cap; the patience rule stops runs well before this
            max_epochs=150,
            dropout=0.2,
        )
        for spec in (NEGLOG, LEERR)
    ]
    outcomes = replicate(
        "mlp", pool, plan, cfgs, test=test,
        master_seed=master_seed, noise_p=noise_p, max_folds=3,
    )
    assert all(o.ok for o in outcomes), [o.error for o in outcomes if not o.ok]
    return {
        name: 100.0 * np.mean([o.result.test_error for o in outcomes if o.loss == name])
        for name in ("neglog", "leerr")
    }


@pytest.fixture(scope="module")
def mnist_mlp_clean(mnist_pool_and_test):
    pool, test = mnist_pool_and_test
    return _mnist_mlp_means(pool, test, noise_p=0.0)


@pytest.mark.slow
def test_criterion_07_mnist_mlp_clean(mnist_mlp_clean):
    """3-fold MLP on MNIST: both errors <= 2.2%, leerr <= neglog + 0.1."""
    means = mnist_mlp_clean
    assert means["neglog"] <= 2.2, means
    assert means["leerr"] <= 2.2, means
    assert means["leerr"] <= means["neglog"] + 0.1, means
    print(f"\nPASS criterion 7: MNIST MLP neglog {means['neglog']:.2f}%, "
          f"leerr {means['leerr']:.2f}% (refs 1.49 / 1.40)")


@pytest.mark.slow
def test_criterion_08_mnist_mlp_label_noise(mnist_pool_and_test, mnist_mlp_clean):
    """Noise at p=0.05 degrades both losses; leerr degrades no more."""
    pool, test = mnist_pool_and_test
    noisy = _mnist_mlp_means(pool, test, noise_p=0.05)
    clean = mnist_mlp_clean
    assert noisy["neglog"] > clean["neglog"], (clean, noisy)
    assert noisy["leerr"] > clean["leerr"], (clean, noisy)
    assert noisy["leerr"] <= noisy["neglog"], noisy
    print(f"\nPASS criterion 8: noise 0.05 degrades neglog "
          f"{clean['neglog']:.2f}->{noisy['neglog']:.2f} and leerr "
          f"{clean['leerr']:.2f}->{noisy['leerr']:.2f} (refs 1.49->1.77, 1.40->1.61)")


def test_criterion_09_statistics_oracle():
    """Frozen t-test values plus the CDF-vs-quadrature bound."""
    from scipy.integrate import quad

    t, df, p = paired_t_test([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
    assert abs(t - 4.2426) < 1e-4
    assert df == 4
    assert abs(p - 0.013236) < 1e-4

    def pdf(x, v):
        c = math.exp(math.lgamma((v + 1) / 2) - math.lgamma(v / 2)) / math.sqrt(v * math.pi)
        return c * (1.0 + x * x / v) ** (-(v + 1) / 2)

    worst = 0.0
    for v in range(1, 31):
        for tv in np.linspace(-6, 6, 13):
            oracle = 0.5 + math.copysign(
                quad(pdf, 0, abs(tv), args=(v,), limit=200)[0], tv
            )
            worst = max(worst, abs(t_cdf(float(tv), v) - oracle))
    assert worst < 1e-8
    print(f"\nPASS criterion 9: t=4.2426, p=0.013236 reproduced; "
          f"CDF vs quadrature {worst:.1e} < 1e-8")


def test_criterion_10_bayes_optimal_predictors():
    """EErr picks a simplex vertex; NegLog recovers the conditional."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        q = float(rng.uniform(0.02, 0.98))
        true = [q, 1.0 - q]
        vertex = bayes_optimal(EERR, true, 0.01)
        assert sorted(vertex.tolist()) == [0.0, 1.0]
        assert vertex[int(np.argmax(true))] == 1.0
        recovered = bayes_optimal(NEGLOG, true, 0.01)
        assert np.max(np.abs(recovered - true)) <= 0.01 + 1e-12
    print("\nPASS criterion 10: 20 random binary conditionals, EErr -> vertex, "
          "NegLog -> conditional within grid step")


def test_criterion_11_deterministic_summaries(tmp_path):
    """Same config + seed twice gives byte-identical summary artifacts."""
    from test_cli import write_synthetic_experiment
    from expacc.cli import cmd_run

    out_a = cmd_run(str(write_synthetic_experiment(tmp_path / "a")))
    out_b = cmd_run(str(write_synthetic_experiment(tmp_path / "b")))
    from pathlib import Path

    for rel in ("summary.csv", "runs.csv", "report.txt"):
        assert (Path(out_a) / rel).read_bytes() == (Path(out_b) / rel).read_bytes()
    print("\nPASS criterion 11: summary artifacts byte-identical across reruns")
