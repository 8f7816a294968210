"""Section 5.4: the encrypted-price classifier.

Paper targets (10-fold CV averaged over 10 runs, 4 price classes):
TP=82.9%, FP=6.8%, Precision=83.5%, Recall=82.9%, AUCROC=0.964, with
no class worse than 5% from the average; adding the exact publisher
inflates accuracy to ~95% (rejected as overfitting); regression on raw
prices fails.

The CV protocol here uses 10 folds x 2 runs (the full 10x10 protocol
only narrows the confidence band; means are stable by run 2) so the
benchmark finishes in minutes.
"""

from repro.core.estimator import Estimator
from repro.core.pme import PAPER_FEATURE_SET
from repro.core.price_model import (
    PAPER_AUCROC,
    PAPER_PRECISION,
    PAPER_TP_RATE,
    regression_baseline,
)

from .conftest import bench_scale, emit

CV_FOLDS = 10
CV_RUNS = 2


def test_sec54_classifier(benchmark, campaign_a1, price_model):
    rows = campaign_a1.feature_rows()
    prices = list(campaign_a1.prices())

    def evaluate():
        return price_model.cross_validate(
            rows, prices, n_folds=CV_FOLDS, n_runs=CV_RUNS, seed=54
        )

    result = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    summary = result.summary()

    lines = ["Regenerated section 5.4 (classifier performance, 10-fold CV):", ""]
    lines.append(f"{'metric':<12} {'measured':>9} {'paper':>8}")
    lines.append(f"{'TP rate':<12} {summary['tp_rate']:>8.1%} {PAPER_TP_RATE:>7.1%}")
    lines.append(f"{'FP rate':<12} {summary['fp_rate']:>8.1%} {'6.8%':>8}")
    lines.append(f"{'precision':<12} {summary['precision']:>8.1%} {PAPER_PRECISION:>7.1%}")
    lines.append(f"{'recall':<12} {summary['recall']:>8.1%} {'82.9%':>8}")
    lines.append(f"{'AUCROC':<12} {summary['auc_roc']:>9.3f} {PAPER_AUCROC:>8.3f}")

    worst_gap = max(r.worst_class_gap("recall") for r in result.reports)
    lines.append(f"worst per-class recall gap: {worst_gap:.1%} (paper: < 5%)")

    reg = regression_baseline(rows, prices, seed=54)
    lines.append("")
    lines.append(
        f"regression baseline: RMSE {reg.rmse_cpm:.2f} CPM "
        f"({reg.relative_rmse:.0%} of the mean price), R^2 {reg.r2:.2f}"
    )
    lines.append("Paper: high regression error pushed the design to classification.")

    full_scale = bench_scale() >= 0.999
    if full_scale:
        assert summary["tp_rate"] > 0.78
        assert summary["precision"] > 0.78
        assert summary["auc_roc"] > 0.92
        assert summary["fp_rate"] < 0.12
    else:
        assert summary["tp_rate"] > 0.6
        assert summary["auc_roc"] > 0.85
    assert reg.relative_rmse > 0.25
    emit("sec54_classifier", lines)


def test_sec54_publisher_overfit(benchmark, campaign_a1):
    """The exact-publisher variant scores higher in CV -- the paper's
    overfitting caution."""
    import numpy as np

    all_rows = campaign_a1.feature_rows()
    all_prices = list(campaign_a1.prices())
    if len(all_rows) > 8000:
        picks = np.random.default_rng(54).choice(len(all_rows), 8000, replace=False)
        rows = [all_rows[i] for i in picks]
        prices = [all_prices[i] for i in picks]
    else:
        rows, prices = all_rows, all_prices
    names = list(PAPER_FEATURE_SET) + ["os"]

    def evaluate():
        base = Estimator.train(
            rows, prices, feature_names=names, seed=54
        ).cross_validate(rows, prices, n_folds=5, n_runs=1, seed=11)
        with_pub = Estimator.train(
            rows, prices, feature_names=names + ["publisher"], seed=54
        ).cross_validate(rows, prices, n_folds=5, n_runs=1, seed=11)
        return base, with_pub

    base, with_pub = benchmark.pedantic(evaluate, rounds=1, iterations=1)

    lines = ["Regenerated section 5.4 (exact-publisher overfitting check):", ""]
    lines.append(f"S features:              acc {base.accuracy:.1%}, AUC {base.auc_roc:.3f}")
    lines.append(f"S + exact publisher:     acc {with_pub.accuracy:.1%}, AUC {with_pub.auc_roc:.3f}")
    lines.append("")
    lines.append("Paper: publisher lifts accuracy (95% vs 83%) but only because the")
    lines.append("campaign's publishers are a small subset of the real web -- the")
    lines.append("configuration is rejected as overfitting.")

    assert with_pub.accuracy > base.accuracy
    assert with_pub.auc_roc >= base.auc_roc
    emit("sec54_publisher_overfit", lines)
