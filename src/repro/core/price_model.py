"""The paper's section-5.4 model figures and its rejected regression.

The selected model -- a Random Forest classifier over 4 log-price
classes -- is :class:`repro.core.estimator.Estimator`.  The paper first
tried regression and found the high price variability defeats it;
``regression_baseline`` reproduces that negative result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.ml.forest import RandomForestRegressor
from repro.ml.metrics import r2_score, root_mean_squared_error
from repro.ml.preprocessing import FrameEncoder
from repro.util.rng import derive_seed

#: The paper's published figures for the selected model (section 5.4),
#: used by tests/benches as reproduction targets.
PAPER_TP_RATE = 0.829
PAPER_FP_RATE = 0.068
PAPER_PRECISION = 0.835
PAPER_RECALL = 0.829
PAPER_AUCROC = 0.964


@dataclass(frozen=True)
class RegressionBaselineResult:
    """Held-out errors of the rejected regression approach."""

    rmse_cpm: float
    r2: float
    relative_rmse: float    # RMSE / mean price


def regression_baseline(
    feature_rows: Sequence[Mapping[str, Hashable]],
    prices: Sequence[float],
    test_fraction: float = 0.3,
    seed: int = 0,
) -> RegressionBaselineResult:
    """Reproduce the paper's negative result: regression on raw prices.

    Trains a random-forest regressor on raw CPM targets and reports
    held-out RMSE/R^2 -- the "low performance (high error)" that pushed
    the paper to classification.
    """
    from repro.ml.model_selection import train_test_split

    names = sorted({k for row in feature_rows for k in row})
    encoder = FrameEncoder(names)
    x = encoder.fit_transform(list(feature_rows))
    y = np.asarray(list(prices), dtype=float)
    train, test = train_test_split(len(y), test_fraction, seed=seed)
    model = RandomForestRegressor(
        n_estimators=25, max_depth=12, seed=derive_seed(seed, "regression")
    )
    model.fit(x[train], y[train])
    pred = model.predict(x[test])
    rmse = root_mean_squared_error(y[test], pred)
    return RegressionBaselineResult(
        rmse_cpm=rmse,
        r2=r2_score(y[test], pred),
        relative_rmse=rmse / float(y[test].mean()),
    )
