"""Classification training with pluggable surrogate losses.

Compares the negative log likelihood against negated expected accuracy and
its leaky variant on logistic regression and MLP classifiers, with the full
replication machinery: cross-validated folds, early stopping, label-noise
injection, gradient-norm diagnostics, and paired significance tests.
"""

from .data import (
    Dataset,
    SplitPlan,
    UciSchema,
    builtin_schema,
    inject_label_noise,
    load_mnist,
    load_uci_csv,
    make_folds,
)
from .harness import (
    EpochRecord,
    FoldOutcome,
    RunResult,
    TrainConfig,
    TrainingDiverged,
    accuracy,
    grad_norm_probe,
    replicate,
    train_run,
)
from .losses import (
    EERR,
    LEERR,
    NEGLOG,
    LossBatchResult,
    LossSpec,
    bayes_optimal,
    emit_loss_curves,
    loss_grad_preact,
    loss_value,
)
from .models import LogisticRegression, Mlp, build_model, xavier_init
from .numerics import Rng, sigmoid, softmax_rows
from .optim import Adam, minibatches
from .stats import ComparisonReport, paired_t_test, render_report, summarize, t_cdf

__version__ = "0.1.0"

__all__ = [
    "Adam",
    "ComparisonReport",
    "Dataset",
    "EERR",
    "EpochRecord",
    "FoldOutcome",
    "LEERR",
    "LogisticRegression",
    "LossBatchResult",
    "LossSpec",
    "Mlp",
    "NEGLOG",
    "Rng",
    "RunResult",
    "SplitPlan",
    "TrainConfig",
    "TrainingDiverged",
    "UciSchema",
    "accuracy",
    "bayes_optimal",
    "build_model",
    "builtin_schema",
    "emit_loss_curves",
    "grad_norm_probe",
    "inject_label_noise",
    "load_mnist",
    "load_uci_csv",
    "loss_grad_preact",
    "loss_value",
    "make_folds",
    "minibatches",
    "paired_t_test",
    "render_report",
    "replicate",
    "sigmoid",
    "softmax_rows",
    "summarize",
    "t_cdf",
    "train_run",
    "xavier_init",
]
