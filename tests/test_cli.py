import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import expacc.harness
from expacc.cli import (
    ConfigError,
    _publish,
    cmd_curves,
    cmd_gradnorms,
    cmd_run,
    load_config,
    load_datasets,
    main,
    validate_config,
)
from expacc.harness import TrainConfig
from expacc.losses import LossSpec
from expacc.numerics import Rng
from helpers import write_idx_pair


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
        assert {c.dropout for c in validate_config(raw).train_cfgs} == {0.0}
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
    # dropout 1.0 is a probability but not a dropout rate; it must fail
    # config validation, not a later grid point
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
    "key, value",
    [("lr", -1.0), ("lr", math.inf), ("lr", math.nan), ("dropout", -0.1), ("dropout", 1.0)],
)
def test_bad_rate_is_rejected_at_main_and_at_train_config(tmp_path, capsys, key, value):
    # the config check names the key; TrainConfig is the one library check
    # (Adam and train_run take the rates it let through)
    config = write_synthetic_experiment(
        tmp_path, model={"kind": "mlp", "hidden": [4]}, train={key: value, "max_epochs": 2}
    )
    assert main(["run", str(config)]) == 2
    assert f"train.{key}: " in capsys.readouterr().err
    with pytest.raises(ValueError, match=key):
        TrainConfig(loss=LossSpec("neglog"), max_epochs=2, **{key: value})


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"train": {"lr": math.nan, "max_epochs": 2}}, "train.lr"),
        ({"train": {"lr": math.inf, "max_epochs": 2}}, "train.lr"),
        ({"train": {"lr_grid": [1.0e-3, math.nan], "max_epochs": 2}}, "train.lr_grid[1]"),
        ({"losses": ["neglog", {"kind": "leerr", "alpha": math.inf}]}, "losses[1].alpha"),
        ({"losses": [{"kind": "eerr", "alpha": math.nan}]}, "losses[0].alpha"),
    ],
)
def test_config_non_finite_number_names_its_key_before_data_loads(
    tmp_path, monkeypatch, capsys, overrides, field
):
    # a NaN or infinite rate would train every cell into divergence and
    # still exit 0 with only failed-fold rows
    loaded = []
    monkeypatch.setattr(expacc.cli, "load_datasets", lambda cfg: loaded.append(cfg))
    config = write_synthetic_experiment(tmp_path, **overrides)
    with pytest.raises(ConfigError) as exc:
        load_config(str(config))
    assert exc.value.field == field
    assert main(["run", str(config)]) == 2
    assert f"{field}: " in capsys.readouterr().err
    assert loaded == []


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"model": {"kind": "mlp", "hidden": 300}}, "model.hidden"),
        ({"model": {"kind": "mlp", "hidden": "300"}}, "model.hidden"),
        ({"losses": ["neglog", {"kind": "leerr", "alpha": [1]}]}, "losses[1].alpha"),
        ({"losses": [{"kind": "leerr", "alpha": "0.3"}]}, "losses[0].alpha"),
        ({"losses": [{"kind": "leerr", "alpha": True}]}, "losses[0].alpha"),
        ({"losses": [{"kind": "eerr", "alpha": None}]}, "losses[0].alpha"),
        # a key the chosen model or scheme would ignore
        ({"model": {"kind": "logreg", "hidden": [4]}}, "model.hidden"),
        ({"replication": {"scheme": "five_by_two", "folds": 3}}, "replication.folds"),
        ({"replication": {"scheme": "kfold", "folds": 3, "train_size": 9}},
         "replication.train_size"),
        ({"replication": {"scheme": "five_by_two", "dev_size": 9}}, "replication.dev_size"),
        # each other value the config check rejects
        ({"model": {"kind": "cnn"}}, "model.kind"),
        ({"model": [1]}, "model"),
        ({"losses": []}, "losses"),
        ({"losses": ["neglog", "neglog"]}, "losses"),
        ({"losses": [3]}, "losses[0]"),
        ({"train": {"lr_grid": [], "max_epochs": 2}}, "train.lr_grid"),
        ({"noise": {"p": "x"}}, "noise.p"),
        ({"seed": -1}, "seed"),
        ({"seed": True}, "seed"),
        ({"out_dir": ""}, "out_dir"),
        # an alpha that neglog or eerr would ignore, and min_epochs, which
        # only the patience rule reads
        ({"losses": [{"kind": "eerr", "alpha": 0.3}]}, "losses[0].alpha"),
        ({"train": {"min_epochs": 3, "max_epochs": 5}}, "train.min_epochs"),
        # null unsets only max_epochs, patience and the grids
        ({"train": {"lr": None, "max_epochs": 5}}, "train.lr"),
        # a dataset file is a path, checked before any data loads
        ({"dataset": {"name": "synth", "path": 5}}, "dataset.path"),
        ({"dataset": {"name": "synth", "path": "synth.csv", "schema": 7}}, "dataset.schema"),
        ({"dataset": {"name": "synth", "train_images": 5, "train_labels": "labels"}},
         "dataset.train_images"),
    ],
)
def test_config_value_of_the_wrong_type_names_its_key(tmp_path, capsys, overrides, field):
    # a wrong type is a config error (exit 2), not a TypeError (exit 1), and
    # a string or a bool is not silently taken as a number; so is every other
    # value the config check rejects, and a key that would be ignored
    with pytest.raises(ConfigError) as exc:
        validate_config(dict(CONFIG_BASE, **overrides))
    assert exc.value.field == field
    config = write_synthetic_experiment(tmp_path, **overrides)
    assert main(["run", str(config)]) == 2
    assert f"{field}: " in capsys.readouterr().err


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
    # loss-major: every loss trains the same candidates, which differ only in `loss`
    assert [c.loss.name for c in cfgs] == ["neglog"] * 4 + ["eerr"] * 4
    assert [(c.lr, c.dropout) for c in cfgs[:4]] == [
        (0.01, 0.0), (0.01, 0.5), (0.1, 0.0), (0.1, 0.5)
    ]
    assert [replace(c, loss=None) for c in cfgs[4:]] == [replace(c, loss=None) for c in cfgs[:4]]
    assert {c.batch_size for c in cfgs} == {8}


def test_config_null_unsets_max_epochs_patience_and_the_grids():
    train = {"max_epochs": None, "patience": 3, "lr_grid": None, "dropout_grid": None}
    cfgs = validate_config(dict(CONFIG_BASE, train=train)).train_cfgs
    assert [replace(c, loss=None) for c in cfgs] == [TrainConfig(loss=None, patience=3)] * 2


def test_out_dir_expands_home_and_variables_as_dataset_paths_do(monkeypatch):
    # variables first, then `~`, so a variable may hold a `~` path
    monkeypatch.setenv("HOME", "/home/someone")
    monkeypatch.setenv("RUNS", "~/runs")
    for out_dir in ("~/runs/x", "$RUNS/x", "$HOME/runs/x"):
        assert validate_config(dict(CONFIG_BASE, out_dir=out_dir)).out_dir == "/home/someone/runs/x"


@pytest.mark.parametrize(
    "path", sorted(Path(__file__).parent.parent.joinpath("configs").glob("*.yaml")),
    ids=lambda path: path.name,
)
def test_every_shipped_config_validates(path, tmp_path, monkeypatch):
    # validation reads no data: the data directory may be empty
    monkeypatch.setenv("EXPACC_DATA_DIR", str(tmp_path))
    assert load_config(str(path)).train_cfgs


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
        ("name: synth\nlabel_values: 5\n", "label_values must be a list, got 5"),
        ("name: synth\nlabel_column: abc\n", "label_column must be an integer, got 'abc'"),
        ("name: synth\ndrop_columns: [1, x]\n", r"drop_columns\[1\] must be a column number, got 'x'"),
        ("name: synth\nexpected: {instances: many}\n",
         "expected.instances must be an integer, got 'many'"),
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


def test_publish_removes_the_directories_it_empties(tmp_path):
    # gradnorms writes no metrics/: the previous run's directory goes with
    # its files, but never out_dir itself
    config = write_synthetic_experiment(tmp_path, replication={"scheme": "kfold", "folds": 2})
    out = Path(cmd_run(str(config)))
    assert (out / "metrics").is_dir()
    cmd_gradnorms(str(config))
    assert not [p for p in out.rglob("*") if p.is_dir()]
    assert sorted(p.name for p in out.iterdir()) == ["gradnorms.csv", "manifest.json"]


def test_publish_keeps_a_directory_that_holds_a_user_file(tmp_path):
    config = write_synthetic_experiment(tmp_path, replication={"scheme": "kfold", "folds": 2})
    out = Path(cmd_run(str(config)))
    (out / "metrics" / "notes.txt").write_text("not written by expacc\n")
    cmd_gradnorms(str(config))
    assert [p.name for p in (out / "metrics").iterdir()] == ["notes.txt"]
    assert (out / "metrics" / "notes.txt").read_text() == "not written by expacc\n"


def _manifest_matches_or_is_absent(out: Path) -> bool:
    if not (out / "manifest.json").exists():
        return True
    listed = json.loads((out / "manifest.json").read_text())["files"]
    return all(
        (out / rel).is_file()
        and hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest
        for rel, digest in listed.items()
    )


def test_publish_survives_a_failure_at_every_replace(tmp_path, monkeypatch):
    # each os.replace of a publish (the pending list, each artifact, the
    # manifest) fails in turn; every failure leaves no manifest or one that
    # matches, and the next run leaves no file of the failed one
    first = {"runs.csv": "a\n", "metrics/a.csv": "1\n", "report.txt": "first\n"}
    second = {"runs.csv": "b\n", "metrics/b.csv": "2\n", "summary.csv": "s\n"}
    third = {"runs.csv": "c\n", "gradnorms.csv": "3\n"}
    replace = os.replace
    for step in range(len(second) + 2):
        out = tmp_path / f"out{step}"
        _publish(str(out), first, seed=1)
        (out / "notes.txt").write_text("not written by expacc\n")
        calls = []

        def failing(src, dst):
            calls.append(dst)
            if len(calls) == step + 1:
                raise OSError("disk full")
            replace(src, dst)

        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", failing)
            with pytest.raises(OSError, match="disk full"):
                _publish(str(out), second, seed=2)
        assert _manifest_matches_or_is_absent(out), step
        _publish(str(out), third, seed=3)
        on_disk = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
        assert on_disk == {*third, "manifest.json", "notes.txt"}, step
        assert (out / "notes.txt").read_text() == "not written by expacc\n"
        assert _manifest_matches_or_is_absent(out)


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
    # the fold's stack returns eerr's run as diverged (points: neglog,
    # eerr, leerr, one each); the other cells train, but gradnorms fails
    train_run = expacc.harness.train_run

    def diverge_eerr(*args, **kwargs):
        stack = train_run(*args, **kwargs)
        stack.runs[1].error = "eerr: non-finite loss at epoch 1, batch 0"
        return stack

    monkeypatch.setattr(expacc.harness, "train_run", diverge_eerr)
    config = write_synthetic_experiment(tmp_path)
    assert main(["gradnorms", str(config)]) == 1
    err = capsys.readouterr().err
    assert "fold 0 / eerr: eerr: non-finite loss" in err and "Traceback" not in err


def test_failed_cell_row_reports_the_candidate_that_failed(tmp_path, monkeypatch):
    # one diverged grid point fails the whole cell, and the row names it,
    # not the TrainConfig default lr that no candidate trained with.  One
    # pool row near the float64 limit overflows the pre-activations once
    # training has moved the weights far enough: with these data the first
    # point in candidate order to fail is (lr 0.2, dropout 0.0) for eerr and
    # leerr, and for neglog (lr 0.01, dropout 0.0), whose Adam second moment
    # overflows first
    load = expacc.cli.load_datasets

    def one_huge_feature(cfg):
        pool, test = load(cfg)
        pool.x[0, 0] = 1.3e308
        return pool, test

    monkeypatch.setattr(expacc.cli, "load_datasets", one_huge_feature)
    config = write_synthetic_experiment(
        tmp_path,
        model={"kind": "mlp", "hidden": [4]},
        train={"lr_grid": [0.01, 0.2, 0.3], "dropout_grid": [0.0, 0.25],
               "batch_size": 32, "max_epochs": 3},
        replication={"scheme": "fixed", "train_size": 90, "dev_size": 40},
        seed=2,
    )
    with np.errstate(all="ignore"):
        rows = read_rows(Path(cmd_run(str(config))) / "runs.csv")[1:]
    assert len(rows) == 3
    assert [(row[0], row[2], row[3]) for row in rows] == [
        ("neglog", "0.01", "0.0"), ("eerr", "0.2", "0.0"), ("leerr", "0.2", "0.0")
    ]
    assert rows[0][-1] == "neglog: non-finite Adam second moment at epoch 1"
    assert all("non-finite loss" in row[-1] for row in rows[1:])


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
    # a negative or non-integer seed fails as the config's would
    for command, seed in [(c, s) for c in ("run", "gradnorms") for s in ("-1", "abc", "1.5")]:
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main([command, str(config), "--seed", seed])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "Traceback" not in err
        assert err.endswith(f"--seed: expected a non-negative integer, got {seed}\n")


def test_a_bug_exits_1_with_its_traceback_and_bad_data_with_one_line(
    tmp_path, monkeypatch, capsys
):
    config = write_synthetic_experiment(tmp_path)

    def buggy_train_run(*args, **kwargs):
        raise TypeError("bug in a stack")

    monkeypatch.setattr(expacc.harness, "train_run", buggy_train_run)
    assert main(["run", str(config)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" in err and "buggy_train_run" in err
    assert err.splitlines()[-1] == "error: bug in a stack"
    # expected failures, a missing file and bad data, keep their one line:
    # a pool too small for its plan, an IDX label outside 0..9, a test set of
    # 1x1 images for a pool of 2x2 ones (before any training, so no manifest)
    # and a nan cell
    monkeypatch.undo()
    few = write_synthetic_experiment(
        tmp_path / "few", replication={"scheme": "kfold", "folds": 200}
    )
    write_idx_pair(tmp_path, np.zeros((12, 2, 2)), [12] + [0] * 11)
    idx = write_synthetic_experiment(
        tmp_path / "idx", dataset={
            "name": "digits",
            "train_images": str(tmp_path / "images-idx3-ubyte"),
            "train_labels": str(tmp_path / "labels-idx1-ubyte"),
        }
    )
    pool_images, pool_labels = write_idx_pair(tmp_path, np.zeros((12, 2, 2)), [0, 1] * 6, "pool-")
    test_images, test_labels = write_idx_pair(tmp_path, np.zeros((4, 1, 1)), [0, 1] * 2, "test-")
    unlike = write_synthetic_experiment(tmp_path / "unlike", dataset={
        "name": "digits", "train_images": str(pool_images), "train_labels": str(pool_labels),
        "test_images": str(test_images), "test_labels": str(test_labels),
    })
    data = tmp_path / "synth.csv"
    text = data.read_text()
    data.write_text("nan" + text[text.index(","):])  # the first row's first cell
    expected = [
        "missing.yaml", "needs at least 200 instances, got 160",
        "digits: labels outside 0..9", "'digits-test' has 1 features and 10 classes",
        "synth.csv:1: non-numeric or non-finite cell 'nan'",
    ]
    for path, message in zip((tmp_path / "missing.yaml", few, idx, unlike, config), expected):
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1 and err.startswith("error: ")
        assert message in err
    assert not (tmp_path / "unlike" / "out").exists()


def _fresh_interpreter(code: str, *args) -> str:
    """The stdout of `code` run with `args` in a fresh interpreter, so
    modules other tests imported do not count."""
    src = str(Path(expacc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_import_and_curves_load_no_scipy(tmp_path):
    code = (
        "import sys\n"
        "import expacc, expacc.cli\n"
        "assert expacc.cli.main(['curves', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    out = _fresh_interpreter(code, tmp_path / "c")
    assert out.splitlines()[-1] == "[]"


def test_a_run_never_imports_numpy_ma(tmp_path):
    # numpy 2's `np.unique` imports numpy.ma on its first call, about 14 ms a
    # process; a run finds distinct values with `dict.fromkeys` instead
    logreg = write_synthetic_experiment(
        tmp_path / "logreg", train={"lr_grid": [0.01, 0.1], "batch_size": 32, "max_epochs": 2}
    )
    mlp = write_synthetic_experiment(
        tmp_path / "mlp",
        model={"kind": "mlp", "hidden": [4]},
        train={"lr": 0.05, "dropout": 0.1, "batch_size": 32, "max_epochs": 2},
        noise={"p": 0.1},
    )
    code = (
        "import sys\n"
        "import expacc.cli\n"
        "for config in sys.argv[1:]:\n"
        "    assert expacc.cli.main(['run', config]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _fresh_interpreter(code, logreg, mlp).splitlines()[-1] == "False"
