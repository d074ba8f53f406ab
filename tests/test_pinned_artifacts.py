"""Every artifact of two small runs, pinned byte for byte.

A config and a seed give byte-identical artifacts on one machine for a
fixed numpy and BLAS.  These two runs pin the SHA-256 of each file they
write, `manifest.json` included, so a change that moves any bit of a
result fails the test suite and not only the benchmark's digests:

- `logreg`: three losses, each over a three-point lr grid, on a small CSV;
- `mlp`: two losses (a leerr with its own alpha) over a dropout grid, with
  label noise, on a tiny two-hidden-layer network;
- `logreg10`: three losses over a two-point lr grid on a ten-class CSV, so
  its class axis is reduced by numpy's own calls, not column by column
  (`numerics.SHORT_AXIS`).

The shapes are small enough that the BLAS thread count does not change
their matmuls.  The output directory is named through an environment
variable, so the config's bytes (and with them the manifest) do not depend
on where the test runs.
"""

import hashlib
from pathlib import Path

import pytest
import yaml

from expacc.cli import main
from expacc.numerics import Rng

pytestmark = pytest.mark.bits

CONFIGS = {
    "logreg": {
        "model": {"kind": "logreg"},
        "losses": ["neglog", "eerr", "leerr"],
        "train": {"lr_grid": [0.01, 0.05, 0.2], "batch_size": 16, "max_epochs": 12,
                  "patience": 3},
        "replication": {"scheme": "kfold", "folds": 3},
        "seed": 5,
    },
    "mlp": {
        "model": {"kind": "mlp", "hidden": [6, 4]},
        "losses": ["neglog", {"kind": "leerr", "alpha": 0.2}],
        "train": {"lr": 0.02, "dropout_grid": [0.0, 0.3], "batch_size": 16,
                  "max_epochs": 6, "patience": 2},
        "replication": {"scheme": "five_by_two", "max_folds": 4},
        "noise": {"p": 0.1},
        "seed": 11,
    },
    "logreg10": {
        "model": {"kind": "logreg"},
        "losses": ["neglog", "eerr", "leerr"],
        "train": {"lr_grid": [0.02, 0.1], "batch_size": 16, "max_epochs": 8,
                  "patience": 3},
        "replication": {"scheme": "kfold", "folds": 3},
        "seed": 9,
    },
}

# rows and classes of each run's CSV
SIZES = {"logreg": (150, 3), "mlp": (150, 3), "logreg10": (300, 10)}

PINNED = {
    "logreg": {
        "manifest.json":
            "43ec5174caa39208efe8dd0f904a5b7ff51833ebf9acfad46f0443eed5964850",
        "metrics/eerr_fold00.csv":
            "aa77fa45aa7d7f0b4183195bdc68e3bbe85dc17182203e023c1000375e357ff1",
        "metrics/eerr_fold01.csv":
            "4fd4f375600c5560f064f02bb4a1e308209e6d518184a74576ba5c145f3e3184",
        "metrics/eerr_fold02.csv":
            "d5d64fc201f92f328fcd5d44d08c50b58bed119ebecd76ad1be326f7bd8a8355",
        "metrics/leerr_fold00.csv":
            "e65cf42a42783e95e18e7077dde1b6304bd2b0aa2fb8b3b95f349c7b6c0593bb",
        "metrics/leerr_fold01.csv":
            "42f5f60829819960cafe8c63c7052259b42f726764a766fbdb58451c1a681ad2",
        "metrics/leerr_fold02.csv":
            "af8b9e29bb3b16e120ffef8a1fa39fd50fd68aaccd664b2fa262a2c1ba2f522d",
        "metrics/neglog_fold00.csv":
            "abf361feb942bdee060dd016ee3342505880c7faf77050a85234088a3291857d",
        "metrics/neglog_fold01.csv":
            "35fadc0509a90ea7ff764504cec5aa62e3f800ee3b4fe7b68bbc7d8448224f5b",
        "metrics/neglog_fold02.csv":
            "e70545c7d1e50d49ef72876221644a0bb29ca7cd4c03d04595b23fbd3bf05442",
        "report.txt":
            "5a6ecbd223c2c5923659315114ecb85051572b1bb71e9ed5fce39d690dc5d6fc",
        "runs.csv":
            "6df621081b4cf3e8fc41e1557855833ae648956078d61c4df5e8ed700c35ad5e",
        "summary.csv":
            "c08e74cb780f0f652a59c1a33e61b6965fe1ecf5fea2bec5ef18d1b92890026d",
    },
    "mlp": {
        "manifest.json":
            "466d7a324858ef4feba06e8bc22c84bfcd1f81ee7bb201b0fdf2022c7ae148fa",
        "metrics/leerr_fold00.csv":
            "6beebdf16743843aaa39668e16fcc4dc2f6486b6145a062ca2e53c46d4f80d9a",
        "metrics/leerr_fold01.csv":
            "393c0f535d7eacd65a8d0645ee2001ac4ec1682d90c725f5ed4d0680a535ecb9",
        "metrics/leerr_fold02.csv":
            "ceddfb92f28fa6e2d39e734bb710151b4e5ab934f0d6c4f8737e9eb43fc469b1",
        "metrics/leerr_fold03.csv":
            "56cd11e846ec65d528693fa797f7ac9b248cba3303f419616ff0f3d1d4f53354",
        "metrics/neglog_fold00.csv":
            "e01cf02f7969d8c870152881ef30cb146403586b16c4841d63ec9dd8ef094c92",
        "metrics/neglog_fold01.csv":
            "adf54a025623a1daf07009fdadb70002c38f864b786c95494cb920c18cf24419",
        "metrics/neglog_fold02.csv":
            "e026ecea0fd42b3c4bc0536419e0168e5ac99bd029a6df60dc5ecff1d66d2a02",
        "metrics/neglog_fold03.csv":
            "7b38bef813e48200dcc5b8e742bdf3d46f1f7b147d5767f54778a02e8aecaf14",
        "report.txt":
            "d48476ca4946d17ee743862c14dfcd48b69349421417fb145bf33ea8ffe30270",
        "runs.csv":
            "65cca4d70950a1a24a3465f819ecf894cc7fb58c747fcbaa8899da67786ca07d",
        "summary.csv":
            "a328365489dee727decd2c07e0d0faaf4eb2aa4bdb0fa1c5c9d524d1850ee2d8",
    },
    "logreg10": {
        "manifest.json":
            "ae8280c0d7829ac9b245ee28f0bc641719dba3b73efa22ce2e8418a8a5808a57",
        "metrics/eerr_fold00.csv":
            "d5ebaad7fbf3dd5cedcbb9efe5e055eb3a6979d6d1effd20cbf52a2589b59df2",
        "metrics/eerr_fold01.csv":
            "9a6c264eaea2783da35f38d5f6c6dca6c5dbd9344c60276a3ccb74590e796db5",
        "metrics/eerr_fold02.csv":
            "e17b0105c95508f668a08a4155da0d9d34477c5156f1216392378fadbd6113b1",
        "metrics/leerr_fold00.csv":
            "2ca778ef48060bdf24862a3f248eff341691296d5428b34a6f86bc06953d6e8a",
        "metrics/leerr_fold01.csv":
            "510a70d4a9adb7b706137a918465caef0cebbb40da9d13d1fd92428253e92e22",
        "metrics/leerr_fold02.csv":
            "f2e6544c5d28f67c3e146991f18bcc1c04bb80f7b81d0fe3082e2c287010814a",
        "metrics/neglog_fold00.csv":
            "50a358794cfb020d85f7d91cd0e392d884078b3652c22e091cc5c812967f22e1",
        "metrics/neglog_fold01.csv":
            "a091f7fa005763794d47e0812315d855eafcf84a635f296f0ad702ecd0e4703a",
        "metrics/neglog_fold02.csv":
            "6b82193754933ba38082f318e46da0b52e52e892b48bacbb5f03d2cda0cad892",
        "report.txt":
            "bdafbae4f33045c426e0f49b12885257f4eb0ee4b22d5d8e23df449287bfa1b2",
        "runs.csv":
            "f87d5f317295706b0baca5eea85f8d9c575257451033da95a1cee67250bbf807",
        "summary.csv":
            "0862f50d354b5755a8fcbf6f6dbc82a756a1723e86b939f432155eb8769ed3de",
    },
}


def write_experiment(root: Path, name: str) -> Path:
    """The named run's CSV (`SIZES`), its schema and its config under `root`."""
    rng = Rng(17)
    (n, k), d = SIZES[name], 4
    y = rng.integers(k, size=n)
    x = rng.normal(size=(n, d)) + rng.uniform(-1.5, 1.5, size=(k, d))[y]
    (root / "data.csv").write_text(
        "".join(",".join(f"{v:.6f}" for v in row) + f",{label}\n" for row, label in zip(x, y))
    )
    (root / "schema.yaml").write_text('name: pinned\nlabel_column: -1\ndelimiter: ","\n')
    config = {
        "dataset": {"name": "pinned", "path": "data.csv", "schema": "schema.yaml"},
        "out_dir": "$PINNED_OUT",
        **CONFIGS[name],
    }
    path = root / "config.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=True))
    return path


def artifact_digests(out: Path) -> dict:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_artifacts_match_their_pinned_hashes(name, tmp_path, monkeypatch):
    config = write_experiment(tmp_path, name)
    monkeypatch.setenv("PINNED_OUT", str(tmp_path / "out"))
    assert main(["run", str(config)]) == 0
    assert artifact_digests(tmp_path / "out") == PINNED[name]
