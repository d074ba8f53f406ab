import math

import numpy as np
import pytest
from scipy.integrate import quad

from expacc.stats import paired_t_test, render_report, summarize, t_cdf


def t_pdf(x, df):
    c = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(df * math.pi)
    return c * (1.0 + x * x / df) ** (-(df + 1) / 2)


def cdf_by_quadrature(t, df):
    if t >= 0:
        return 0.5 + quad(t_pdf, 0.0, t, args=(df,), limit=200)[0]
    return 0.5 - quad(t_pdf, t, 0.0, args=(df,), limit=200)[0]


def test_t_cdf_matches_numerical_integration():
    worst = 0.0
    for df in range(1, 31):
        for t in np.linspace(-6.0, 6.0, 25):
            worst = max(worst, abs(t_cdf(float(t), df) - cdf_by_quadrature(float(t), df)))
    assert worst < 1e-8


def test_t_cdf_basics():
    assert t_cdf(0.0, 5) == 0.5
    assert t_cdf(50.0, 5) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        t_cdf(1.0, 0)
    # the closed form holds for integer degrees of freedom only
    for df in (2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="integer"):
            t_cdf(1.0, df)
    for df in range(1, 40):
        for t in (0.3, 1.7, 4.2):
            assert t_cdf(-t, df) == 1.0 - t_cdf(t, df)
    # at df 146 the even-df sum rounds to a CDF just above 1 unless capped
    for df in (*range(1, 40), 146):
        for t in (40.0, 1e300, math.inf):
            assert 0.0 <= t_cdf(-t, df) <= t_cdf(t, df) <= 1.0


def test_paired_t_reference_case():
    # frozen from the quadrature oracle above: d = [1,2,3,4,5] against zero
    t, df, p = paired_t_test([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
    assert t == pytest.approx(4.2426, abs=1e-4)
    assert df == 4
    assert p == pytest.approx(0.013236, abs=1e-4)


def test_paired_t_zero_differences():
    t, df, p = paired_t_test([3.0, 1.0, 2.0], [3.0, 1.0, 2.0])
    assert (t, df, p) == (0.0, 2, 1.0)


def test_paired_t_antisymmetry():
    a = [0.8, 0.6, 0.9, 0.4]
    b = [0.5, 0.7, 0.6, 0.2]
    t_ab, _, p_ab = paired_t_test(a, b)
    t_ba, _, p_ba = paired_t_test(b, a)
    assert t_ab == -t_ba
    assert p_ab == pytest.approx(p_ba, abs=1e-15)


def test_paired_t_constant_nonzero_shift():
    t, _, p = paired_t_test([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    assert t == math.inf and p == 0.0


def test_paired_t_contract_violations():
    with pytest.raises(ValueError, match="2 pairs"):
        paired_t_test([1.0], [2.0])
    with pytest.raises(ValueError, match="equal-length"):
        paired_t_test([1.0, 2.0], [1.0, 2.0, 3.0])


def test_summarize_single_loss_is_best():
    report = summarize({"neglog": [0.2, 0.3, 0.25]})
    assert report.best == "neglog"
    assert report.entries[0].not_worse_than_best
    assert report.entries[0].p_vs_best is None


def test_summarize_identical_vectors_both_flagged():
    v = [0.2, 0.3, 0.25, 0.28]
    report = summarize({"neglog": v, "leerr": list(v)})
    assert all(e.not_worse_than_best for e in report.entries)
    other = next(e for e in report.entries if e.loss != report.best)
    assert other.p_vs_best == 1.0


def test_summarize_flags_only_clear_outlier():
    base = np.array([0.20, 0.21, 0.19, 0.22, 0.20, 0.21, 0.19, 0.20, 0.21, 0.20])
    # paired t against base: t=1.274, p=0.235 -> flagged
    near = base + np.array(
        [0.003, -0.002, 0.004, -0.001, 0.002, 0.001, -0.003, 0.002, 0.001, 0.002]
    )
    # consistent 8-point gap: p ~ 0 -> unflagged
    outlier = base + 0.08 + np.array(
        [0.002, -0.001, 0.003, 0.001, -0.002, 0.002, 0.001, -0.001, 0.002, 0.001]
    )
    report = summarize({"neglog": base, "leerr": near, "eerr": outlier})
    by_name = {e.loss: e for e in report.entries}
    assert report.best == "neglog"
    assert by_name["leerr"].not_worse_than_best
    assert not by_name["eerr"].not_worse_than_best
    assert by_name["eerr"].p_vs_best < 0.05


def test_summarize_pairs_move_together():
    rng = np.random.default_rng(1)
    a = rng.uniform(0.1, 0.3, 8)
    b = a + rng.normal(0.01, 0.002, 8)
    report1 = summarize({"x": a, "y": b})
    perm = rng.permutation(8)
    report2 = summarize({"x": a[perm], "y": b[perm]})
    e1 = {e.loss: e for e in report1.entries}
    e2 = {e.loss: e for e in report2.entries}
    assert e1["y"].p_vs_best == pytest.approx(e2["y"].p_vs_best, abs=1e-12)


def test_summarize_rejects_ragged_input():
    with pytest.raises(ValueError, match="replicate counts"):
        summarize({"a": [0.1, 0.2], "b": [0.1]})


def test_render_report_is_aligned_text():
    report = summarize({"neglog": [0.2, 0.22], "leerr": [0.18, 0.19]})
    text = render_report(report, title="demo")
    lines = text.splitlines()
    assert lines[0] == "demo"
    assert "best: leerr" in lines[1]
    assert any(line.startswith("neglog") for line in lines)
