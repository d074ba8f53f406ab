import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import expacc.harness
from expacc.cli import (
    ConfigError,
    cmd_curves,
    cmd_gradnorms,
    cmd_run,
    load_config,
    load_datasets,
    main,
    validate_config,
)
from expacc.numerics import Rng


def write_synthetic_experiment(tmp_path: Path, **config_overrides) -> Path:
    """A self-contained experiment dir: CSV data, schema, and config."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    rng = Rng(99)
    n = 160
    y = rng.integers(2, size=n)
    x = rng.normal(size=(n, 4))
    x[:, 0] += np.where(y == 1, 1.2, -1.2)
    csv_path = tmp_path / "synth.csv"
    csv_path.write_text(
        "\n".join(",".join(f"{v:.6f}" for v in row) + f",{label}"
                  for row, label in zip(x, y)) + "\n"
    )
    (tmp_path / "synth_schema.yaml").write_text(
        "name: synth\nlabel_column: -1\ndelimiter: \",\"\n"
    )
    config = {
        "dataset": {"name": "synth", "path": "synth.csv", "schema": "synth_schema.yaml"},
        "model": {"kind": "logreg"},
        "losses": ["neglog", "eerr", "leerr"],
        "train": {"lr": 0.05, "batch_size": 32, "max_epochs": 6},
        "replication": {"scheme": "five_by_two"},
        "noise": {"p": 0.0},
        "seed": 7,
        "out_dir": str(tmp_path / "out"),
    }
    config.update(config_overrides)
    path = tmp_path / "experiment.yaml"
    path.write_text(yaml.safe_dump(config))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_curves_artifacts(tmp_path):
    out = cmd_curves(str(tmp_path / "curves"))
    rows_a = read_rows(Path(out) / "loss_curves_prob.csv")
    rows_b = read_rows(Path(out) / "loss_curves_preact.csv")
    assert rows_a[0] == ["p", "neglog", "eerr", "leerr"]
    assert rows_b[0] == ["a", "neglog_sig", "eerr_sig", "leerr_sig",
                         "d_neglog", "d_eerr", "d_leerr"]
    assert len(rows_a) == 1001 and len(rows_b) == 1001  # header + 1000 points
    p = np.array([float(r[0]) for r in rows_a[1:]])
    neglog = np.array([float(r[1]) for r in rows_a[1:]])
    closest = np.argmin(np.abs(p - 0.5))
    assert neglog[closest] == pytest.approx(0.6931, abs=2e-3)
    manifest = json.loads((Path(out) / "manifest.json").read_text())
    assert set(manifest["files"]) == {"loss_curves_prob.csv", "loss_curves_preact.csv"}


def test_config_unknown_loss_names_field(tmp_path):
    path = write_synthetic_experiment(tmp_path, losses=["neglog", "hinge"])
    with pytest.raises(ConfigError, match=r"losses\[1\]"):
        load_config(str(path))


def test_config_domain_checks_name_fields():
    base = {
        "dataset": {"name": "x", "path": "x.csv"},
        "losses": ["neglog"],
        "train": {"max_epochs": 5},
        "replication": {"scheme": "five_by_two"},
        "out_dir": "out",
    }
    bad_noise = dict(base, noise={"p": 1.5})
    with pytest.raises(ConfigError, match="noise.p"):
        validate_config(bad_noise)
    bad_patience = dict(base, train={"patience": 0})
    with pytest.raises(ConfigError, match="train.patience"):
        validate_config(bad_patience)
    bad_key = dict(base, optimizer={"lr": 1.0})
    with pytest.raises(ConfigError, match="optimizer"):
        validate_config(bad_key)
    bad_scheme = dict(base, replication={"scheme": "loocv"})
    with pytest.raises(ConfigError, match="replication.scheme"):
        validate_config(bad_scheme)
    bad_dropout = dict(base, train={"max_epochs": 5, "dropout": 0.5})
    with pytest.raises(ConfigError, match="train.dropout"):
        validate_config(bad_dropout)


CONFIG_BASE = {
    "dataset": {"name": "x", "path": "x.csv"},
    "losses": ["neglog", "eerr"],
    "train": {"max_epochs": 5},
    "replication": {"scheme": "five_by_two"},
    "out_dir": "out",
}


def test_config_without_stopping_rule_names_train():
    with pytest.raises(ConfigError, match=r"^train: need a stopping rule"):
        validate_config(dict(CONFIG_BASE, train={"lr": 0.1}))


def test_config_min_epochs_above_max_epochs_names_train():
    raw = dict(CONFIG_BASE, train={"min_epochs": 9, "max_epochs": 5})
    with pytest.raises(ConfigError, match=r"^train: min_epochs 9 exceeds"):
        validate_config(raw)


@pytest.mark.parametrize(
    "train, field",
    [
        ({"dropout": 0.0}, None),
        ({"dropout": 0.5}, "train.dropout"),
        ({"dropout_grid": [0.0]}, None),
        ({"dropout_grid": [0.0, 0.5]}, "train.dropout_grid"),
    ],
)
def test_config_logreg_dropout_names_the_train_key(train, field):
    # a zero rate is no dropout, so logreg accepts it as a value or a grid
    raw = dict(CONFIG_BASE, model={"kind": "logreg"}, train={**train, "max_epochs": 5})
    if field is None:
        assert {c.dropout for c in validate_config(raw).train_cfgs["eerr"]} == {0.0}
        return
    with pytest.raises(ConfigError, match="dropout requires model.kind = mlp") as exc:
        validate_config(raw)
    assert exc.value.field == field


def test_config_with_overrides_section_exits_2_naming_it(tmp_path, capsys):
    # every loss trains the same candidates; there is no per-loss section
    config = write_synthetic_experiment(tmp_path, overrides={"eerr": {"lr": 0.5}})
    assert main(["run", str(config)]) == 2
    assert "overrides: unknown key" in capsys.readouterr().err


def test_config_rejected_grid_value_names_its_entry_before_data_loads(tmp_path, monkeypatch):
    # dropout 1.0 passes the [0, 1] probability check but no TrainConfig
    # accepts it; it must fail config validation, not a later grid point
    loaded = []
    monkeypatch.setattr(expacc.cli, "load_datasets", lambda cfg: loaded.append(cfg))
    config = write_synthetic_experiment(
        tmp_path,
        model={"kind": "mlp", "hidden": [4]},
        train={"dropout_grid": [0.0, 1.0], "batch_size": 32, "max_epochs": 2},
    )
    with pytest.raises(ConfigError) as exc:
        load_config(str(config))
    assert exc.value.field == "train.dropout_grid[1]"
    assert main(["run", str(config)]) == 2
    assert loaded == []


@pytest.mark.parametrize(
    "model, train, field",
    [
        ("logreg", {"lr": 0.1, "lr_grid": [0.01, 0.1]}, "train.lr"),
        ("mlp", {"dropout": 0.2, "dropout_grid": [0.0, 0.5]}, "train.dropout"),
    ],
)
def test_config_grid_conflicts_name_the_key(model, train, field):
    # a value a grid would ignore is an error, not silently dropped
    raw = dict(CONFIG_BASE, model={"kind": model}, train={**train, "max_epochs": 5})
    with pytest.raises(ConfigError, match="replaces it") as exc:
        validate_config(raw)
    assert exc.value.field == field


def test_config_grids_expand_lr_major_into_candidates():
    raw = dict(
        CONFIG_BASE,
        model={"kind": "mlp"},
        train={"lr_grid": [0.01, 0.1], "dropout_grid": [0.0, 0.5], "batch_size": 8,
               "max_epochs": 5},
    )
    cfgs = validate_config(raw).train_cfgs
    assert list(cfgs) == ["neglog", "eerr"]
    assert [(c.lr, c.dropout) for c in cfgs["neglog"]] == [
        (0.01, 0.0), (0.01, 0.5), (0.1, 0.0), (0.1, 0.5)
    ]
    # every loss trains the same candidates: they differ only in `loss`
    for name, candidates in cfgs.items():
        assert {c.loss.name for c in candidates} == {name}
        assert [replace(c, loss=None) for c in candidates] == [
            replace(c, loss=None) for c in cfgs["neglog"]
        ]
    assert {c.batch_size for c in cfgs["eerr"]} == {8}


CSV_DATASET = {"name": "synth", "path": "synth.csv", "schema": "synth_schema.yaml"}
IDX_DATASET = {"name": "synth", "train_images": "train-images", "train_labels": "train-labels"}


@pytest.mark.parametrize(
    "dataset, field",
    [
        ({**CSV_DATASET, "test_images": "missing-file"}, "dataset.test_images"),
        ({**IDX_DATASET, "path": "nothere.csv", "schema": "nothere.yaml"}, "dataset.path"),
        ({**IDX_DATASET, "schema": "nothere.yaml"}, "dataset.schema"),
        ({**IDX_DATASET, "test_images": "t10k-images"}, "dataset.test_labels"),
        ({"name": "synth", "train_images": "train-images"}, "dataset.train_labels"),
        ({"name": "synth", "schema": "synth_schema.yaml"}, "dataset.path"),
    ],
)
def test_dataset_keys_of_the_other_format_fail_before_data_loads(
    tmp_path, monkeypatch, dataset, field
):
    # a key the dataset's format would ignore, or half of an IDX pair, is a
    # config error found before any file is read
    loaded = []
    monkeypatch.setattr(expacc.cli, "load_datasets", lambda cfg: loaded.append(cfg))
    config = write_synthetic_experiment(tmp_path, dataset=dataset)
    with pytest.raises(ConfigError) as exc:
        load_config(str(config))
    assert exc.value.field == field
    assert main(["run", str(config)]) == 2
    assert loaded == []


@pytest.mark.parametrize(
    "schema_text, message",
    [
        ("label_column: -1\n", "missing required key 'name'"),
        ("name: synth\nlabel_col: -1\n", r"unknown schema keys \['label_col'\]"),
        ("- name\n- synth\n", "expected a mapping, got list"),
        ("name: synth\nlabel_column: [1\n", "while parsing a flow sequence"),
    ],
)
def test_bad_schema_file_is_a_config_error_naming_the_file(
    tmp_path, monkeypatch, schema_text, message
):
    read = []
    monkeypatch.setattr(expacc.cli, "load_uci_csv", lambda *args: read.append(args))
    config = write_synthetic_experiment(tmp_path)
    schema = tmp_path / "synth_schema.yaml"
    schema.write_text(schema_text)
    with pytest.raises(ConfigError, match=message) as exc:
        load_datasets(load_config(str(config)))
    assert exc.value.field == "dataset.schema"
    assert str(schema) in str(exc.value)
    assert main(["run", str(config)]) == 2
    assert read == []


def test_unknown_expected_count_in_schema_file_fails_before_data_loads(tmp_path, monkeypatch):
    read = []
    monkeypatch.setattr(expacc.cli, "load_uci_csv", lambda *args: read.append(args))
    config = write_synthetic_experiment(tmp_path)
    (tmp_path / "synth_schema.yaml").write_text("name: synth\nexpected: {rows: 160}\n")
    with pytest.raises(ConfigError, match=r"synth: unknown expected keys \['rows'\]") as exc:
        load_datasets(load_config(str(config)))
    assert exc.value.field == "dataset.schema"
    assert main(["run", str(config)]) == 2
    assert read == []


def test_yaml_syntax_error_reports_location(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("dataset: {name: x\nlosses: [neglog]\n")
    with pytest.raises(ConfigError, match="line"):
        load_config(str(path))


def test_run_writes_all_artifacts_with_manifest(tmp_path):
    config = write_synthetic_experiment(tmp_path)
    out = Path(cmd_run(str(config)))
    runs = read_rows(out / "runs.csv")
    assert runs[0][:4] == ["loss", "fold", "lr", "dropout"]
    assert len(runs) == 1 + 3 * 10  # three losses, 5x2 folds
    summary = read_rows(out / "summary.csv")
    assert summary[0] == ["loss", "mean", "std", "p_vs_best", "flag"]
    assert len(summary) == 4
    metrics = sorted((out / "metrics").glob("*.csv"))
    assert len(metrics) == 30
    header = read_rows(metrics[0])[0]
    assert header == ["epoch", "train_loss", "train_acc", "dev_acc", "grad_norm_mean"]

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    listed = set(manifest["files"])
    on_disk = {
        str(p.relative_to(out))
        for p in out.rglob("*")
        if p.is_file() and p.name != "manifest.json"
    }
    assert listed == on_disk


def test_run_is_byte_identical_across_repeats(tmp_path):
    config = write_synthetic_experiment(tmp_path)
    out = Path(cmd_run(str(config)))
    first = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    out_again = Path(cmd_run(str(config)))
    assert out_again == out
    for path, content in first.items():
        assert path.read_bytes() == content, f"{path} changed across reruns"


def test_rerun_into_same_out_dir_leaves_only_the_new_run(tmp_path):
    # a smaller rerun removes what the first run's manifest lists, and only that
    first = write_synthetic_experiment(
        tmp_path, replication={"scheme": "five_by_two", "max_folds": 4}
    )
    out = Path(cmd_run(str(first)))
    (out / "notes.txt").write_text("not written by expacc\n")
    (tmp_path / "outside.txt").write_text("not inside out_dir\n")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["files"]["../outside.txt"] = ""
    (out / "manifest.json").write_text(json.dumps(manifest))

    second = write_synthetic_experiment(
        tmp_path, replication={"scheme": "five_by_two", "max_folds": 1}
    )
    cmd_run(str(second))
    manifest = json.loads((out / "manifest.json").read_text())
    on_disk = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    assert on_disk == set(manifest["files"]) | {"manifest.json", "notes.txt"}
    assert "summary.csv" not in on_disk
    assert (tmp_path / "outside.txt").exists()


def test_failed_rerun_leaves_the_previous_run_untouched(tmp_path, monkeypatch):
    # every artifact is rendered before any file of the previous run is deleted
    config = write_synthetic_experiment(tmp_path)
    out = Path(cmd_run(str(config)))
    first = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

    def fail(results):
        raise RuntimeError("summary failed")

    monkeypatch.setattr(expacc.cli, "summarize", fail)
    assert main(["run", str(config), "--seed", "123"]) == 1
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == first


def test_run_seed_override_changes_results(tmp_path):
    config = write_synthetic_experiment(tmp_path)
    out_default = Path(cmd_run(str(config)))
    bytes_default = (out_default / "runs.csv").read_bytes()
    config2 = write_synthetic_experiment(tmp_path, out_dir=str(tmp_path / "out2"))
    out_override = Path(cmd_run(str(config2), seed_override=123))
    assert (out_override / "runs.csv").read_bytes() != bytes_default
    manifest = json.loads((out_override / "manifest.json").read_text())
    assert manifest["seed"] == 123


def test_run_fixed_scheme_single_fold(tmp_path):
    config = write_synthetic_experiment(
        tmp_path,
        replication={"scheme": "fixed", "train_size": 90, "dev_size": 40},
        losses=["neglog", "leerr"],
    )
    out = Path(cmd_run(str(config)))
    runs = read_rows(out / "runs.csv")
    assert len(runs) == 1 + 2  # one fold per loss
    # a single replicate cannot support a paired test
    assert not (out / "summary.csv").exists()
    assert "too few complete folds" in (out / "report.txt").read_text()


def test_gradnorms_header_and_lr_zero_constancy(tmp_path):
    config = write_synthetic_experiment(
        tmp_path, train={"lr": 0.0, "batch_size": 32, "max_epochs": 5}
    )
    path = Path(cmd_gradnorms(str(config)))
    rows = read_rows(path)
    assert rows[0] == ["epoch", "neglog_norm", "eerr_norm", "leerr_norm"]
    assert len(rows) == 6
    for col in (1, 2, 3):
        values = np.array([float(r[col]) for r in rows[1:]])
        assert np.max(np.abs(values - values[0])) < 1e-12 * max(1.0, values[0])
    # frozen parameters: eerr norms sit well below neglog norms
    assert float(rows[1][2]) < float(rows[1][1])


def test_gradnorms_matches_the_first_fold_of_run(tmp_path):
    # gradnorms trains the cells run trains on fold 0: the config's own
    # losses (a custom leerr alpha included), noise and lr grid
    config = write_synthetic_experiment(
        tmp_path,
        losses=[{"kind": "leerr", "alpha": 0.3}, "neglog"],
        train={"lr_grid": [0.01, 0.2], "batch_size": 32, "max_epochs": 4},
        noise={"p": 0.2},
    )
    rows = read_rows(cmd_gradnorms(str(config)))
    assert rows[0] == ["epoch", "leerr_norm", "neglog_norm"]
    out = Path(cmd_run(str(config)))
    for col, loss in enumerate(["leerr", "neglog"], start=1):
        metrics = read_rows(out / "metrics" / f"{loss}_fold00.csv")
        assert [r[col] for r in rows[1:]] == [r[4] for r in metrics[1:]]


def test_gradnorms_fails_when_a_cell_fails(tmp_path, monkeypatch, capsys):
    def diverge(*args, **kwargs):
        raise expacc.harness.TrainingDiverged("eerr: non-finite loss at epoch 1, batch 0")

    monkeypatch.setattr(expacc.harness, "train_run", diverge)
    config = write_synthetic_experiment(tmp_path)
    assert main(["gradnorms", str(config)]) == 1
    assert "non-finite loss" in capsys.readouterr().err


def test_failed_cell_row_reports_the_candidate_that_failed(tmp_path, monkeypatch):
    # one diverged grid point fails the whole cell, and the row names it,
    # not the TrainConfig default lr that no candidate trained with
    train_run = expacc.harness.train_run

    def diverge_at_second_lr(model_kind, train, dev, test, cfg, hidden):
        if cfg.lr == 0.2:
            raise expacc.harness.TrainingDiverged("non-finite loss at epoch 1, batch 0")
        return train_run(model_kind, train, dev, test, cfg, hidden)

    monkeypatch.setattr(expacc.harness, "train_run", diverge_at_second_lr)
    config = write_synthetic_experiment(
        tmp_path,
        model={"kind": "mlp", "hidden": [4]},
        train={"lr_grid": [0.01, 0.2, 0.3], "dropout_grid": [0.0, 0.25],
               "batch_size": 32, "max_epochs": 2},
        replication={"scheme": "fixed", "train_size": 90, "dev_size": 40},
    )
    rows = read_rows(Path(cmd_run(str(config))) / "runs.csv")[1:]
    assert len(rows) == 3
    for row in rows:
        assert (row[2], row[3]) == ("0.2", "0.0")
        assert "non-finite loss" in row[-1]


def test_main_exit_codes(tmp_path, capsys):
    config = write_synthetic_experiment(tmp_path)
    assert main(["curves", str(tmp_path / "c")]) == 0
    assert main(["run", str(config)]) == 0
    bad = tmp_path / "bad.yaml"
    bad.write_text("losses: [neglog]\n")
    assert main(["run", str(bad)]) == 2
    capsys.readouterr()
    assert main(["run", str(tmp_path / "missing.yaml")]) == 1
    with pytest.raises(SystemExit) as exc:
        main(["run", str(config), "--jobs", "2"])
    assert exc.value.code == 2
