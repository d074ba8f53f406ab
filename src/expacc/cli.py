"""Config-driven experiment runner.

Subcommands:

    expacc run <config.yaml>        replicate an experiment, write artifacts
    expacc curves <out_dir>         write the binary-setting loss-curve CSVs
    expacc gradnorms <config.yaml>  per-epoch gradient-norm CSV on one fold

Configs are YAML with a fixed key schema (see `validate_config`, which also
expands the `train` grids into one flat list of candidate `TrainConfig`s,
the same for every loss, so the comparison is paired and every setting is
checked before any data loads); paths may use environment variables, and
dataset paths resolve relative to the config file, `out_dir` against the
working directory.  `run` and `gradnorms` share one path: load the config,
its data and its fold plan, then `replicate`; `gradnorms` stops after the
first fold.  Each subcommand renders all of its artifacts in memory, then
`_publish` replaces the previous run in the output directory (the files an
earlier manifest there lists) with them and a manifest recording the config
hash, the seed, and the SHA-256 of each emitted file, so a rerun with the
same seed can be checked byte-for-byte.  The replacement is crash-safe: the
directory holds no manifest, or one whose hashes all match, at every point.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass, field, replace

import yaml

from .data import DataError, builtin_schema, load_mnist, load_uci_csv, make_folds, UciSchema
from .harness import _PLAN_KEY, TrainConfig, replicate
from .losses import KINDS, DEFAULT_ALPHA, LossSpec, emit_loss_curves
from .models import DEFAULT_HIDDEN
from .numerics import Rng
from .stats import render_report, summarize

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "main"]


class ConfigError(Exception):
    """Invalid experiment config; `field` is the offending dotted key."""

    def __init__(self, field_path: str, message: str):
        self.field = field_path
        super().__init__(f"{field_path}: {message}")


# scheme -> {each `replication` key it reads: (its make_folds argument, minimum)}
_SCHEMES = {
    "kfold": {"folds": ("k", 2)},
    "five_by_two": {},
    "fixed": {"train_size": ("train_size", 1), "dev_size": ("dev_size", 1)},
}


@dataclass
class ExperimentConfig:
    dataset: dict
    model_kind: str
    hidden: tuple
    train_cfgs: list  # every loss's candidate TrainConfigs, loss-major, in config order
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


def _dropout(value, path: str) -> float:
    if _prob(value, path) == 1.0:
        raise ConfigError(path, "dropout must lie in [0, 1): 1 drops every unit")
    return float(value)


def _rate(value, path: str) -> float:
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not 0 <= value < math.inf):
        raise ConfigError(path, f"expected a finite non-negative number, got {value!r}")
    return float(value)


def _count(value, path: str, minimum: int = 1) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(path, f"expected an integer >= {minimum}, got {value!r}")
    return value


# The single-value keys of the `train` section and their checkers; the grid
# keys and the single value each replaces; the keys a null unsets.
_TRAIN = {
    "lr": _rate,
    "batch_size": _count,
    "max_epochs": _count,
    "min_epochs": lambda value, path: _count(value, path, minimum=0),
    "patience": _count,
    "dropout": _dropout,
}
_GRIDS = {"lr_grid": "lr", "dropout_grid": "dropout"}
_NULLABLE = {"max_epochs", "patience", *_GRIDS}


def _parse_loss(entry, path: str) -> LossSpec:
    if isinstance(entry, str):
        entry = {"kind": entry}
    elif not isinstance(entry, dict):
        raise ConfigError(path, f"expected a loss name or mapping, got {entry!r}")
    _check_keys(entry, {"kind", "alpha"}, path)
    kind = _need(entry, "kind", path)
    if kind not in KINDS:
        raise ConfigError(path, f"unknown loss name {kind!r}, expected one of {list(KINDS)}")
    if kind != "leerr" and "alpha" in entry:
        raise ConfigError(f"{path}.alpha", f"ignored: only leerr reads alpha, not {kind}")
    alpha = entry.get("alpha", DEFAULT_ALPHA)
    if not isinstance(alpha, (int, float)) or isinstance(alpha, bool):
        raise ConfigError(f"{path}.alpha", f"expected a number, got {alpha!r}")
    return _config_error(f"{path}.alpha", LossSpec, kind, float(alpha))


def _config_error(path: str, build, *args, **kwargs):
    """`build(*args, **kwargs)`, reporting its ValueError as a ConfigError at `path`."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _train_cfgs(losses, raw: dict) -> list:
    """Every loss's candidate TrainConfigs, loss-major: the same candidates
    for each, so the comparison is paired.  The single values of `train`
    make one config (a rejected combination names `train`), then each grid
    sets its field to every listed value, lr-major, so ties in dev accuracy
    go to the earliest point; a rejected value names its grid entry."""
    _check_keys(raw, {*_TRAIN, *_GRIDS}, "train")
    given = {k: v for k, v in raw.items() if v is not None or k not in _NULLABLE}
    base = {key: check(given[key], f"train.{key}") for key, check in _TRAIN.items()
            if key in given}
    candidates = [_config_error("train", TrainConfig, loss=losses[0], **base)]
    if "min_epochs" in base and "patience" not in base:
        raise ConfigError("train.min_epochs", "ignored: only the train.patience rule reads it")
    for grid, key in _GRIDS.items():
        if grid not in given:
            continue
        if key in base:
            raise ConfigError(
                f"train.{key}", f"ignored: train.{grid} replaces it; set one or the other"
            )
        if not isinstance(given[grid], list) or not given[grid]:
            raise ConfigError(f"train.{grid}", "expected a non-empty list")
        values = [_TRAIN[key](v, f"train.{grid}[{i}]") for i, v in enumerate(given[grid])]
        candidates = [
            _config_error(f"train.{grid}[{i}]", replace, cfg, **{key: value})
            for cfg in candidates
            for i, value in enumerate(values)
        ]
    return [replace(cfg, loss=spec) for spec in losses for cfg in candidates]


def _check_dataset(dataset: dict) -> None:
    """The section names one format's files: an IDX train pair and an
    optional test pair (both or neither), or a CSV `path` with its
    optional `schema`; a key of the other format is an error, not ignored."""
    train, test = ("train_images", "train_labels"), ("test_images", "test_labels")
    if not any(key in dataset for key in train):
        for key in test:
            if key in dataset:
                raise ConfigError(f"dataset.{key}",
                                  "an IDX key, but dataset.train_images is not set")
        _need(dataset, "path", "dataset")
        return
    for key in ("path", "schema"):
        if key in dataset:
            raise ConfigError(f"dataset.{key}", "a CSV key, but this is an IDX dataset")
    for pair in (train, test) if any(key in dataset for key in test) else (train,):
        for key in pair:
            if key not in dataset:
                raise ConfigError(f"dataset.{key}", f"missing: dataset.{pair[0]} and "
                                  f"dataset.{pair[1]} come as a pair")


def validate_config(raw: dict, source_path: str = "<config>") -> ExperimentConfig:
    _check_keys(
        raw,
        {"dataset", "model", "losses", "train", "replication", "noise", "seed", "out_dir"},
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
    _check_dataset(dataset)

    model = raw.get("model") or {}
    _check_keys(model, {"kind", "hidden"}, "model")
    model_kind = model.get("kind", "logreg")
    if model_kind not in ("logreg", "mlp"):
        raise ConfigError("model.kind", f"expected 'logreg' or 'mlp', got {model_kind!r}")
    if model_kind == "logreg" and "hidden" in model:
        raise ConfigError("model.hidden", "ignored: a logreg model has no hidden layers")
    hidden = model.get("hidden", DEFAULT_HIDDEN)
    if not isinstance(hidden, (list, tuple)):
        raise ConfigError("model.hidden", f"expected a list of layer sizes, got {hidden!r}")
    hidden = tuple(_count(h, f"model.hidden[{i}]") for i, h in enumerate(hidden))

    losses_raw = _need(raw, "losses", "")
    if not isinstance(losses_raw, list) or not losses_raw:
        raise ConfigError("losses", "expected a non-empty list")
    losses = [_parse_loss(entry, f"losses[{i}]") for i, entry in enumerate(losses_raw)]
    names = [spec.name for spec in losses]
    if len(set(names)) != len(names):
        raise ConfigError("losses", f"duplicate loss names in {names}")

    train = raw.get("train") or {}
    train_cfgs = _train_cfgs(losses, train)
    if model_kind == "logreg" and any(c.dropout for c in train_cfgs):
        key = "dropout" if train.get("dropout_grid") is None else "dropout_grid"
        raise ConfigError(f"train.{key}", "dropout requires model.kind = mlp")

    replication = _need(raw, "replication", "")
    _check_keys(
        replication,
        {"scheme", "folds", "train_size", "dev_size", "max_folds"},
        "replication",
    )
    scheme = _need(replication, "scheme", "replication")
    if not isinstance(scheme, str) or scheme not in _SCHEMES:
        raise ConfigError("replication.scheme",
                          f"expected kfold, five_by_two, or fixed, got {scheme!r}")
    ignored = sorted(set(replication) - {"scheme", "max_folds", *_SCHEMES[scheme]})
    if ignored:
        raise ConfigError(f"replication.{ignored[0]}",
                          f"ignored: scheme {scheme} does not use it")
    scheme_args = {
        arg: _count(_need(replication, key, "replication"), f"replication.{key}", minimum)
        for key, (arg, minimum) in _SCHEMES[scheme].items()
    }
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

    return ExperimentConfig(
        dataset=dataset,
        model_kind=model_kind,
        hidden=hidden,
        train_cfgs=train_cfgs,
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


def _load_idx_pair(cfg: ExperimentConfig, part: str, name: str):
    keys = (f"{part}_images", f"{part}_labels")
    return load_mnist(*(_resolve(cfg.dataset[key], cfg.source_path) for key in keys), name=name)


def load_datasets(cfg: ExperimentConfig):
    """Materialize (pool, test) datasets named by a validated config."""
    ds = cfg.dataset
    name = ds["name"]
    if "train_images" in ds:
        pool = _load_idx_pair(cfg, "train", name)
        test = _load_idx_pair(cfg, "test", f"{name}-test") if "test_images" in ds else None
        return pool, test
    if "schema" in ds:
        schema = _config_error(
            "dataset.schema", UciSchema.from_file, _resolve(ds["schema"], cfg.source_path)
        )
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


def _csv(header, rows) -> str:
    """One CSV artifact's text; callers format floats with `_fmt`."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# What `_publish` writes besides the artifacts: the list of files a run in
# progress may leave behind, and the suffix of each file's temporary name.
_PENDING, _TMP = ".expacc-pending.json", ".expacc-tmp"


def _listed(path: str, key: str | None = None) -> list:
    """The relative paths a JSON file names (under `key`, if given); [] when
    there is no such file."""
    try:
        with open(path) as fh:
            listed = json.load(fh)
    except FileNotFoundError:
        return []
    return list(listed[key] if key else listed)


def _remove_inside(out_dir: str, rels) -> None:
    """Delete each listed file inside `out_dir`, in order, and the directories emptied."""
    root = os.path.realpath(out_dir)
    for rel in rels:
        path = os.path.realpath(os.path.join(root, rel))
        if os.path.commonpath([root, path]) == root and os.path.isfile(path):
            os.remove(path)
            path = os.path.dirname(path)
            while path != root and not os.listdir(path):
                os.rmdir(path)
                path = os.path.dirname(path)


def _write_atomic(path: str, data: bytes) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + _TMP, "wb") as fh:
        fh.write(data)
    os.replace(path + _TMP, path)


def _publish(out_dir: str, files: dict, *, seed=None, config_bytes: bytes = b"") -> None:
    """Replace the run in `out_dir` with `files` ({path relative to out_dir:
    text}) and a manifest of the seed, the config's hash and each file's.

    Callers render every artifact first, so a run that fails before this
    leaves the previous one untouched.  Each text is written as UTF-8 and
    those same bytes are hashed.

    A crash at any point leaves either no manifest or one whose hashes all
    match.  First a pending list is written naming every file this run may
    leave behind: the previous run's (its manifest's and, after a crash, its
    pending list's), and each new file under its own and its temporary
    name.  Then the old manifest goes, then the files it and the old pending
    list name and the directories emptied.  Each new file is written to its
    temporary name and `os.replace`d into place, the new manifest's
    `os.replace` commits the run, and the pending list goes last.  A run
    after a crash removes what the pending list names.  Files expacc did
    not write, and the directories holding them, are never touched.
    """
    manifest = os.path.join(out_dir, "manifest.json")
    pending = os.path.join(out_dir, _PENDING)
    old = _listed(manifest, "files") + _listed(pending)
    new = [*files, "manifest.json"]
    _write_atomic(pending, json.dumps(sorted({*old, *new, *(rel + _TMP for rel in new)})).encode())
    _remove_inside(out_dir, ["manifest.json", *old])
    digests = {}
    for rel, text in files.items():
        data = text.encode("utf-8")
        _write_atomic(os.path.join(out_dir, rel), data)
        digests[rel] = hashlib.sha256(data).hexdigest()
    record = {
        "config_sha256": hashlib.sha256(config_bytes).hexdigest() if config_bytes else None,
        "seed": seed,
        "files": digests,
    }
    _write_atomic(manifest, (json.dumps(record, indent=2, sort_keys=True) + "\n").encode())
    os.remove(pending)


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
        hidden=experiment.hidden,
        max_folds=experiment.max_folds if max_folds is None else max_folds,
    )
    return experiment, seed, pool, outcomes


def cmd_run(config_path: str, seed_override: int | None = None) -> str:
    """Execute a replicated experiment; returns the output directory."""
    cfg, seed, pool, outcomes = _replicate_config(config_path, seed_override)

    runs = []
    for o in outcomes:
        cell = [o.loss, o.fold, _fmt(o.lr), _fmt(o.dropout)]
        if o.ok:
            r = o.result
            runs.append([*cell, r.best_epoch, len(r.records), _fmt(r.best_dev_acc),
                         _fmt(r.test_acc), _fmt(r.test_error), ""])
        else:
            runs.append([*cell, "", "", "", "", "", o.error])
    files = {"runs.csv": _csv(
        ["loss", "fold", "lr", "dropout", "best_epoch", "epochs",
         "dev_acc", "test_acc", "test_error", "error"],
        runs,
    )}

    for o in outcomes:
        if o.ok:
            files[f"metrics/{o.loss}_fold{o.fold:02d}.csv"] = _csv(
                ["epoch", "train_loss", "train_acc", "dev_acc", "grad_norm_mean"],
                ([r.epoch, _fmt(r.train_loss), _fmt(r.train_acc), _fmt(r.dev_acc),
                  _fmt(r.grad_norm_mean)] for r in o.result.records),
            )

    dropped = sorted({o.fold for o in outcomes if not o.ok})
    complete_folds = sorted({o.fold for o in outcomes} - set(dropped))
    results = {}  # loss name -> its test errors on the complete folds, in fold order
    for o in outcomes:
        if o.fold not in dropped:
            results.setdefault(o.loss, []).append(o.result.test_error)
    report_lines = []
    if dropped:
        report_lines.append(f"note: folds {dropped} failed and are excluded from the comparison")
        for o in outcomes:
            if not o.ok:
                report_lines.append(f"  fold {o.fold} / {o.loss}: {o.error}")
    if len(complete_folds) >= 2:
        report = summarize(results)
        files["summary.csv"] = _csv(
            ["loss", "mean", "std", "p_vs_best", "flag"],
            ([e.loss, _fmt(e.mean), _fmt(e.std),
              "" if e.p_vs_best is None else _fmt(e.p_vs_best),
              int(e.not_worse_than_best)] for e in report.entries),
        )
        report_lines.append(render_report(report, title=f"{pool.name} / {cfg.model_kind}"))
    else:
        report_lines.append("too few complete folds for a comparison")
    report_text = "\n".join(report_lines)
    files["report.txt"] = report_text if report_text.endswith("\n") else report_text + "\n"

    _publish(cfg.out_dir, files, seed=seed, config_bytes=cfg.raw_bytes)
    return cfg.out_dir


def cmd_curves(out_dir: str) -> str:
    """Write both 1000-point loss-curve tables of `emit_loss_curves` as CSV."""
    header_a, table_a, header_b, table_b = emit_loss_curves(1000)
    _publish(out_dir, {
        name: _csv(header, ([_fmt(v) for v in row] for row in table))
        for name, header, table in (
            ("loss_curves_prob.csv", header_a, table_a),
            ("loss_curves_preact.csv", header_b, table_b),
        )
    })
    return out_dir


def cmd_gradnorms(config_path: str, seed_override: int | None = None) -> str:
    """Per-epoch mean gradient norms of the config's losses on the first fold.

    The cells are the ones `run` trains on that fold (same noise, grids and
    seeds); any failed cell is an error.
    """
    cfg, seed, _, outcomes = _replicate_config(config_path, seed_override, max_folds=1)
    failed = [f"fold 0 / {o.loss}: {o.error}" for o in outcomes if not o.ok]
    if failed:  # an expected failure (divergence, bad data), reported without a traceback
        raise DataError("; ".join(failed))
    columns = {o.loss: [r.grad_norm_mean for r in o.result.records] for o in outcomes}

    n_epochs = max(len(v) for v in columns.values())
    table = _csv(
        ["epoch", *(f"{name}_norm" for name in columns)],
        ([e + 1, *(_fmt(v[e]) if e < len(v) else "" for v in columns.values())]
         for e in range(n_epochs)),
    )
    _publish(cfg.out_dir, {"gradnorms.csv": table}, seed=seed, config_bytes=cfg.raw_bytes)
    return os.path.join(cfg.out_dir, "gradnorms.csv")


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
        if not isinstance(exc, (DataError, OSError)):  # a bug: show where it happened
            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
