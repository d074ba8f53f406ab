"""Config-driven experiment runner.

Subcommands:

    expacc run <config.yaml>        replicate an experiment, write artifacts
    expacc curves <out_dir>         write the binary-setting loss-curve CSVs
    expacc gradnorms <config.yaml>  per-epoch gradient-norm CSV on one fold

Configs are YAML with a fixed key schema (see `validate_config`, which also
builds each loss's `TrainConfig`); paths may use environment variables and
are resolved relative to the config file.  `run` and `gradnorms` share one
path: load the config, its data and its fold plan, then `replicate`;
`gradnorms` stops after the first fold.  Every run writes a manifest
recording the config hash, the seed, and the SHA-256 of each emitted file,
so a rerun with the same seed can be checked byte-for-byte.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

import yaml

from .data import builtin_schema, load_mnist, load_uci_csv, make_folds, UciSchema
from .harness import _PLAN_KEY, TrainConfig, replicate
from .losses import KINDS, DEFAULT_ALPHA, LossSpec, write_loss_curves
from .numerics import Rng
from .stats import render_report, summarize

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "main"]


class ConfigError(Exception):
    """Invalid experiment config; `field` is the offending dotted key."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


_TRAIN_KEYS = {
    "lr", "batch_size", "max_epochs", "min_epochs", "patience", "dropout",
    "lr_grid", "dropout_grid",
}


@dataclass
class ExperimentConfig:
    dataset: dict
    model_kind: str
    hidden: tuple
    train_cfgs: dict  # loss name -> TrainConfig, in config order
    lr_grid: list | None
    dropout_grid: list | None
    scheme: str
    scheme_args: dict
    max_folds: int | None
    noise_p: float
    seed: int
    out_dir: str
    source_path: str = ""
    raw_bytes: bytes = field(default=b"", repr=False)


def _need(raw: dict, key: str, path: str):
    if key not in raw:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required key")
    return raw[key]


def _check_keys(raw: dict, allowed: set, path: str):
    if not isinstance(raw, dict):
        raise ConfigError(path or "<root>", f"expected a mapping, got {type(raw).__name__}")
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(
            f"{path}.{sorted(unknown)[0]}" if path else sorted(unknown)[0],
            "unknown key",
        )


def _prob(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if not 0.0 <= float(value) <= 1.0:
        raise ConfigError(path, f"probability out of [0, 1]: {value}")
    return float(value)


def _count(value, path: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(path, f"expected an integer >= {minimum}, got {value!r}")
    return value


def _parse_loss(entry, path: str) -> LossSpec:
    if isinstance(entry, str):
        kind, alpha = entry, DEFAULT_ALPHA
    elif isinstance(entry, dict):
        _check_keys(entry, {"kind", "alpha"}, path)
        kind = _need(entry, "kind", path)
        alpha = entry.get("alpha", DEFAULT_ALPHA)
    else:
        raise ConfigError(path, f"expected a loss name or mapping, got {entry!r}")
    if kind not in KINDS:
        raise ConfigError(path, f"unknown loss name {kind!r}, expected one of {list(KINDS)}")
    try:
        return LossSpec(kind, float(alpha))
    except ValueError as exc:
        raise ConfigError(f"{path}.alpha", str(exc)) from None


def _parse_train(raw: dict, path: str) -> dict:
    _check_keys(raw, _TRAIN_KEYS, path)
    out = {}
    if "lr" in raw:
        lr = raw["lr"]
        if not isinstance(lr, (int, float)) or isinstance(lr, bool) or lr < 0:
            raise ConfigError(f"{path}.lr", f"expected a non-negative number, got {lr!r}")
        out["lr"] = float(lr)
    if "batch_size" in raw:
        out["batch_size"] = _count(raw["batch_size"], f"{path}.batch_size")
    if "max_epochs" in raw and raw["max_epochs"] is not None:
        out["max_epochs"] = _count(raw["max_epochs"], f"{path}.max_epochs")
    if "min_epochs" in raw:
        out["min_epochs"] = _count(raw["min_epochs"], f"{path}.min_epochs", minimum=0)
    if "patience" in raw and raw["patience"] is not None:
        out["patience"] = _count(raw["patience"], f"{path}.patience")
    if "dropout" in raw:
        out["dropout"] = _prob(raw["dropout"], f"{path}.dropout")
    for grid_key in ("lr_grid", "dropout_grid"):
        if grid_key in raw and raw[grid_key] is not None:
            values = raw[grid_key]
            if not isinstance(values, list) or not values:
                raise ConfigError(f"{path}.{grid_key}", "expected a non-empty list")
            checker = _prob if grid_key == "dropout_grid" else _rate
            out[grid_key] = [checker(v, f"{path}.{grid_key}[{i}]") for i, v in enumerate(values)]
    return out


def _rate(value, path: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
        raise ConfigError(path, f"expected a non-negative number, got {value!r}")
    return float(value)


def _build_cfgs(losses, train: dict, overrides: dict) -> dict:
    """One TrainConfig per loss: `train` without the grids, then the loss's
    overrides.  A rejected combination names the overrides when the loss
    has any, else `train`."""
    base = {k: v for k, v in train.items() if k not in ("lr_grid", "dropout_grid")}
    cfgs = {}
    for spec in losses:
        sub = overrides.get(spec.name, {})
        try:
            cfgs[spec.name] = TrainConfig(loss=spec, **{**base, **sub})
        except ValueError as exc:
            raise ConfigError(f"overrides.{spec.name}" if sub else "train", str(exc)) from None
    return cfgs


def validate_config(raw: dict, source_path: str = "<config>") -> ExperimentConfig:
    _check_keys(
        raw,
        {"dataset", "model", "losses", "train", "overrides", "replication",
         "noise", "seed", "out_dir"},
        "",
    )
    dataset = _need(raw, "dataset", "")
    _check_keys(
        dataset,
        {"name", "path", "schema", "train_images", "train_labels",
         "test_images", "test_labels"},
        "dataset",
    )
    _need(dataset, "name", "dataset")

    model = raw.get("model") or {}
    _check_keys(model, {"kind", "hidden"}, "model")
    model_kind = model.get("kind", "logreg")
    if model_kind not in ("logreg", "mlp"):
        raise ConfigError("model.kind", f"expected 'logreg' or 'mlp', got {model_kind!r}")
    hidden = tuple(model.get("hidden", (300, 200, 100)))
    for i, h in enumerate(hidden):
        _count(h, f"model.hidden[{i}]")

    losses_raw = _need(raw, "losses", "")
    if not isinstance(losses_raw, list) or not losses_raw:
        raise ConfigError("losses", "expected a non-empty list")
    losses = [_parse_loss(entry, f"losses[{i}]") for i, entry in enumerate(losses_raw)]
    names = [spec.name for spec in losses]
    if len(set(names)) != len(names):
        raise ConfigError("losses", f"duplicate loss names in {names}")

    train = _parse_train(raw.get("train") or {}, "train")

    overrides = {}
    for name, sub in (raw.get("overrides") or {}).items():
        if name not in names:
            raise ConfigError(f"overrides.{name}", "does not match any configured loss")
        sub_parsed = _parse_train(sub, f"overrides.{name}")
        for bad in ("lr_grid", "dropout_grid"):
            if bad in sub_parsed:
                raise ConfigError(f"overrides.{name}.{bad}", "grids are experiment-wide")
        overrides[name] = sub_parsed

    replication = _need(raw, "replication", "")
    _check_keys(
        replication,
        {"scheme", "folds", "train_size", "dev_size", "max_folds"},
        "replication",
    )
    scheme = _need(replication, "scheme", "replication")
    scheme_args = {}
    if scheme == "kfold":
        scheme_args["k"] = _count(_need(replication, "folds", "replication"),
                                  "replication.folds", minimum=2)
    elif scheme == "fixed":
        scheme_args["train_size"] = _count(
            _need(replication, "train_size", "replication"), "replication.train_size")
        scheme_args["dev_size"] = _count(
            _need(replication, "dev_size", "replication"), "replication.dev_size")
    elif scheme != "five_by_two":
        raise ConfigError("replication.scheme",
                          f"expected kfold, five_by_two, or fixed, got {scheme!r}")
    max_folds = replication.get("max_folds")
    if max_folds is not None:
        max_folds = _count(max_folds, "replication.max_folds")

    noise = raw.get("noise") or {}
    _check_keys(noise, {"p"}, "noise")
    noise_p = _prob(noise.get("p", 0.0), "noise.p")

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed", f"expected a non-negative integer, got {seed!r}")

    out_dir = _need(raw, "out_dir", "")
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("out_dir", "expected a non-empty path")

    if model_kind == "logreg":
        sections = [("train", train), *((f"overrides.{n}", s) for n, s in overrides.items())]
        for path, section in sections:
            if section.get("dropout", 0.0) or section.get("dropout_grid"):
                raise ConfigError(f"{path}.dropout", "dropout requires model.kind = mlp")

    return ExperimentConfig(
        dataset=dataset,
        model_kind=model_kind,
        hidden=hidden,
        train_cfgs=_build_cfgs(losses, train, overrides),
        lr_grid=train.get("lr_grid"),
        dropout_grid=train.get("dropout_grid"),
        scheme=scheme,
        scheme_args=scheme_args,
        max_folds=max_folds,
        noise_p=noise_p,
        seed=seed,
        out_dir=os.path.expandvars(out_dir),
        source_path=source_path,
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "rb") as fh:
        raw_bytes = fh.read()
    try:
        raw = yaml.safe_load(raw_bytes)
    except yaml.YAMLError as exc:
        raise ConfigError("<yaml>", str(exc)) from None
    if not isinstance(raw, dict):
        raise ConfigError("<root>", "config must be a mapping")
    cfg = validate_config(raw, source_path=path)
    cfg.raw_bytes = raw_bytes
    return cfg


def _resolve(path_value: str, config_path: str) -> str:
    expanded = os.path.expanduser(os.path.expandvars(path_value))
    if os.path.isabs(expanded):
        return expanded
    return os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(config_path)), expanded))


def load_datasets(cfg: ExperimentConfig):
    """Materialize (pool, test) datasets named by the config."""
    ds = cfg.dataset
    name = ds["name"]
    if "train_images" in ds:
        for key in ("train_images", "train_labels"):
            if key not in ds:
                raise ConfigError(f"dataset.{key}", "missing for an IDX dataset")
        pool = load_mnist(
            _resolve(ds["train_images"], cfg.source_path),
            _resolve(ds["train_labels"], cfg.source_path),
            name=name,
        )
        test = None
        if "test_images" in ds or "test_labels" in ds:
            for key in ("test_images", "test_labels"):
                if key not in ds:
                    raise ConfigError(f"dataset.{key}", "missing for an IDX dataset")
            test = load_mnist(
                _resolve(ds["test_images"], cfg.source_path),
                _resolve(ds["test_labels"], cfg.source_path),
                name=f"{name}-test",
            )
        return pool, test
    if "path" not in ds:
        raise ConfigError("dataset.path", "missing (non-IDX datasets need a file path)")
    if "schema" in ds:
        schema = UciSchema.from_file(_resolve(ds["schema"], cfg.source_path))
    else:
        try:
            schema = builtin_schema(name)
        except FileNotFoundError:
            raise ConfigError(
                "dataset.schema",
                f"no bundled schema for {name!r}; provide dataset.schema",
            ) from None
    return load_uci_csv(_resolve(ds["path"], cfg.source_path), schema), None


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_metrics_csv(path: str, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "train_acc", "dev_acc", "grad_norm_mean"])
        for r in records:
            writer.writerow(
                [r.epoch, _fmt(r.train_loss), _fmt(r.train_acc), _fmt(r.dev_acc),
                 _fmt(r.grad_norm_mean)]
            )


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir: str, files, *, seed=None, config_bytes: bytes = b"") -> str:
    manifest = {
        "config_sha256": hashlib.sha256(config_bytes).hexdigest() if config_bytes else None,
        "seed": seed,
        "files": {
            os.path.relpath(f, out_dir): _sha256(f) for f in sorted(files)
        },
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _replicate_config(config_path: str, seed_override: int | None, max_folds: int | None = None):
    """Load a config, its data and its fold plan, then train every (fold, loss)
    cell; `max_folds`, when given, replaces the config's own.

    Returns (config, seed, pool, outcomes).
    """
    experiment = load_config(config_path)
    seed = experiment.seed if seed_override is None else seed_override
    pool, test = load_datasets(experiment)
    plan = make_folds(
        Rng(seed).child(_PLAN_KEY), pool.n, experiment.scheme, **experiment.scheme_args
    )
    outcomes = replicate(
        experiment.model_kind,
        pool,
        plan,
        experiment.train_cfgs,
        test=test,
        master_seed=seed,
        noise_p=experiment.noise_p,
        lr_grid=experiment.lr_grid,
        dropout_grid=experiment.dropout_grid,
        hidden=experiment.hidden,
        max_folds=experiment.max_folds if max_folds is None else max_folds,
    )
    return experiment, seed, pool, outcomes


def cmd_run(config_path: str, seed_override: int | None = None) -> str:
    """Execute a replicated experiment; returns the output directory."""
    cfg, seed, pool, outcomes = _replicate_config(config_path, seed_override)

    out_dir = cfg.out_dir
    metrics_dir = os.path.join(out_dir, "metrics")
    os.makedirs(metrics_dir, exist_ok=True)
    files = []

    runs_path = os.path.join(out_dir, "runs.csv")
    with open(runs_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["loss", "fold", "lr", "dropout", "best_epoch", "epochs",
             "dev_acc", "test_acc", "test_error", "error"]
        )
        for o in outcomes:
            if o.ok:
                writer.writerow(
                    [o.loss, o.fold, _fmt(o.lr), _fmt(o.dropout), o.result.best_epoch,
                     len(o.result.records), _fmt(o.result.best_dev_acc),
                     _fmt(o.result.test_acc), _fmt(o.result.test_error), ""]
                )
            else:
                writer.writerow([o.loss, o.fold, _fmt(o.lr), _fmt(o.dropout),
                                 "", "", "", "", "", o.error])
    files.append(runs_path)

    for o in outcomes:
        if o.ok:
            path = os.path.join(metrics_dir, f"{o.loss}_fold{o.fold:02d}.csv")
            _write_metrics_csv(path, o.result.records)
            files.append(path)

    loss_names = list(cfg.train_cfgs)
    by_cell = {(o.loss, o.fold): o for o in outcomes}
    dropped = sorted({o.fold for o in outcomes if not o.ok})
    complete_folds = sorted({o.fold for o in outcomes} - set(dropped))
    results = {
        name: [by_cell[(name, f)].result.test_error for f in complete_folds]
        for name in loss_names
    }
    report_lines = []
    if dropped:
        report_lines.append(f"note: folds {dropped} failed and are excluded from the comparison")
        for o in outcomes:
            if not o.ok:
                report_lines.append(f"  fold {o.fold} / {o.loss}: {o.error}")
    if len(complete_folds) >= 2:
        report = summarize(results)
        summary_path = os.path.join(out_dir, "summary.csv")
        with open(summary_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["loss", "mean", "std", "p_vs_best", "flag"])
            for e in report.entries:
                writer.writerow(
                    [e.loss, _fmt(e.mean), _fmt(e.std),
                     "" if e.p_vs_best is None else _fmt(e.p_vs_best),
                     int(e.not_worse_than_best)]
                )
        files.append(summary_path)
        report_lines.append(render_report(report, title=f"{pool.name} / {cfg.model_kind}"))
    else:
        report_lines.append("too few complete folds for a comparison")

    report_path = os.path.join(out_dir, "report.txt")
    with open(report_path, "w") as fh:
        fh.write("\n".join(report_lines))
        if not report_lines[-1].endswith("\n"):
            fh.write("\n")
    files.append(report_path)

    files.append(_write_manifest(out_dir, files, seed=seed, config_bytes=cfg.raw_bytes))
    return out_dir


def cmd_curves(out_dir: str, grid_size: int = 1000) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path_a, path_b = write_loss_curves(out_dir, grid_size)
    _write_manifest(out_dir, [path_a, path_b])
    return out_dir


def cmd_gradnorms(config_path: str, seed_override: int | None = None) -> str:
    """Per-epoch mean gradient norms of the config's losses on the first fold.

    The cells are the ones `run` trains on that fold (same noise, grids and
    seeds); any failed cell is an error.
    """
    cfg, seed, _, outcomes = _replicate_config(config_path, seed_override, max_folds=1)
    failed = [f"fold 0 / {o.loss}: {o.error}" for o in outcomes if not o.ok]
    if failed:
        raise RuntimeError("; ".join(failed))
    columns = {o.loss: [r.grad_norm_mean for r in o.result.records] for o in outcomes}

    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "gradnorms.csv")
    n_epochs = max(len(v) for v in columns.values())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", *(f"{name}_norm" for name in columns)])
        for e in range(n_epochs):
            row = [e + 1]
            for values in columns.values():
                row.append(_fmt(values[e]) if e < len(values) else "")
            writer.writerow(row)
    _write_manifest(cfg.out_dir, [path], seed=seed, config_bytes=cfg.raw_bytes)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="expacc",
        description="Replicated loss-function comparisons for classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a replicated experiment from a config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")

    p_curves = sub.add_parser("curves", help="emit the loss-curve tables")
    p_curves.add_argument("out_dir")

    p_grad = sub.add_parser("gradnorms", help="emit per-epoch gradient norms, one fold")
    p_grad.add_argument("config")
    p_grad.add_argument("--seed", type=int, default=None, help="override the config seed")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            out_dir = cmd_run(args.config, seed_override=args.seed)
            print(f"wrote artifacts to {out_dir}")
        elif args.command == "curves":
            out_dir = cmd_curves(args.out_dir)
            print(f"wrote loss curves to {out_dir}")
        else:
            path = cmd_gradnorms(args.config, seed_override=args.seed)
            print(f"wrote {path}")
    except ConfigError as exc:
        print(f"config error in {getattr(args, 'config', '?')}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
