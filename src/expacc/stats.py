"""Aggregation of replicated results and paired significance testing.

The paired t-test works on per-fold differences d = a - b:

    t = mean(d) / (sd(d) / sqrt(n)),   sd with n-1 denominator,  df = n-1

with two-tailed p-values from the Student-t CDF, which is evaluated through
the regularized incomplete beta function:

    P(T <= t) = 1 - I_x(df/2, 1/2) / 2,   x = df / (df + t^2),   for t >= 0

and by symmetry for t < 0.  All functions here are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

__all__ = [
    "ComparisonReport",
    "LossSummary",
    "paired_t_test",
    "render_report",
    "summarize",
    "t_cdf",
]

ALPHA = 0.05


def t_cdf(t: float, df: int) -> float:
    """Student-t cumulative distribution function."""
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * betainc(df / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail


def paired_t_test(a, b):
    """Two-tailed paired t-test; returns (t, df, p).

    Pairs are matched by index (fold).  When every difference is zero the
    statistic is defined as t=0, p=1; a zero-variance nonzero difference
    yields an infinite t with p=0.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"need equal-length vectors, got {a.shape} and {b.shape}")
    n = a.size
    if n < 2:
        raise ValueError(f"need at least 2 pairs, got {n}")
    d = a - b
    df = n - 1
    mean = d.mean()
    sd = d.std(ddof=1)
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, df, 1.0
        return math.copysign(math.inf, mean), df, 0.0
    t = mean / (sd / math.sqrt(n))
    p = 2.0 * (1.0 - t_cdf(abs(t), df))
    return float(t), df, float(p)


@dataclass
class LossSummary:
    loss: str
    mean: float
    std: float
    p_vs_best: float | None
    not_worse_than_best: bool


@dataclass
class ComparisonReport:
    best: str
    n_replicates: int
    entries: list


def summarize(results: dict, alpha: float = ALPHA) -> ComparisonReport:
    """Compare per-loss replicate vectors of test error.

    `results` maps loss name -> equal-length sequence of test errors, paired
    by fold.  The loss with the lowest mean is the reference; every other
    loss is tested against it with the paired t-test and flagged when it is
    not significantly worse (p >= alpha).  The best loss is always flagged.
    """
    if not results:
        raise ValueError("no results to summarize")
    lengths = {name: len(v) for name, v in results.items()}
    if len(set(lengths.values())) != 1:
        raise ValueError(f"replicate counts differ: {lengths}")
    n = next(iter(lengths.values()))

    means = {name: float(np.mean(v)) for name, v in results.items()}
    best = min(means, key=lambda name: (means[name], name))

    entries = []
    for name, values in results.items():
        values = np.asarray(values, dtype=np.float64)
        std = float(values.std(ddof=1)) if n > 1 else 0.0
        if name == best:
            entries.append(LossSummary(name, means[name], std, None, True))
        else:
            _, _, p = paired_t_test(values, np.asarray(results[best], dtype=np.float64))
            entries.append(LossSummary(name, means[name], std, p, p >= alpha))
    return ComparisonReport(best=best, n_replicates=n, entries=entries)


def render_report(report: ComparisonReport, title: str = "") -> str:
    """Aligned text table; the flag column mirrors the underlining convention
    (losses not significantly worse than the best)."""
    lines = []
    if title:
        lines.append(title)
    lines.append(f"replicates per loss: {report.n_replicates}    best: {report.best}")
    header = f"{'loss':<10} {'mean':>10} {'std':>10} {'p_vs_best':>10}  not_worse"
    lines.append(header)
    lines.append("-" * len(header))
    for e in report.entries:
        p_txt = "-" if e.p_vs_best is None else f"{e.p_vs_best:.4f}"
        flag = "yes" if e.not_worse_than_best else "no"
        lines.append(f"{e.loss:<10} {e.mean:>10.4f} {e.std:>10.4f} {p_txt:>10}  {flag}")
    return "\n".join(lines) + "\n"
