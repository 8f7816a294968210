"""Ablation: probe-campaign depth vs model quality (paper section 5.2).

The paper sizes campaigns at >=185 impressions per setup.  This
ablation retrains the classifier on shrinking subsamples of A1 to show
how accuracy degrades below the paper's sizing -- the empirical
justification for the sample-size arithmetic.
"""

import numpy as np

from repro.core.estimator import Estimator
from repro.core.pme import PAPER_FEATURE_SET

from .conftest import emit

FRACTIONS = (1.0, 0.5, 0.2, 0.05)


def _subsample(rows, prices, cap, seed):
    import numpy as _np

    if len(rows) <= cap:
        return rows, list(prices)
    picks = _np.random.default_rng(seed).choice(len(rows), size=cap, replace=False)
    return [rows[i] for i in picks], [prices[i] for i in picks]


def test_ablation_training_size(benchmark, campaign_a1):
    rows, price_list = _subsample(
        campaign_a1.feature_rows(), list(campaign_a1.prices()), 8000, 71
    )
    prices = np.array(price_list)
    names = list(PAPER_FEATURE_SET) + ["os"]
    rng = np.random.default_rng(71)

    def evaluate():
        scores = {}
        for fraction in FRACTIONS:
            n = max(60, int(len(rows) * fraction))
            picks = rng.choice(len(rows), size=min(n, len(rows)), replace=False)
            sub_rows = [rows[i] for i in picks]
            sub_prices = list(prices[picks])
            model = Estimator.train(
                sub_rows, sub_prices, feature_names=names, seed=71, n_estimators=30
            )
            cv = model.cross_validate(sub_rows, sub_prices, n_folds=4, n_runs=1, seed=71)
            scores[fraction] = (len(sub_rows), cv.accuracy, cv.auc_roc)
        return scores

    scores = benchmark.pedantic(evaluate, rounds=1, iterations=1)

    lines = ["Ablation: training-set size vs classifier quality:", ""]
    lines.append(f"{'fraction':>9} {'rows':>8} {'accuracy':>9} {'AUCROC':>8}")
    for fraction in FRACTIONS:
        n, acc, auc = scores[fraction]
        lines.append(f"{fraction:>9.2f} {n:>8} {acc:>8.1%} {auc:>8.3f}")
    lines.append("")
    lines.append("Paper: >=185 impressions/setup bound the per-setup price error;")
    lines.append("starving the campaigns degrades the model they train.")

    assert scores[1.0][1] >= scores[0.05][1]
    assert scores[1.0][2] >= scores[0.05][2] - 0.01
    emit("ablation_training_size", lines)
