"""The encrypted-price estimation model (paper section 5.4).

A Random Forest classifier over 4 log-price classes, trained on probe
campaign ground truth, estimating each encrypted notification's price
as the representative (median) CPM of the predicted class.  The paper
first tried regression and found the high price variability defeats it;
``regression_baseline`` reproduces that negative result.

``ModelPackage`` is the JSON artefact the PME ships to YourAdValue
clients: selected features, category vocabulary, the tree ensemble and
class representatives -- everything needed to estimate prices client-
side with no training code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.core.binning import PriceBinner, fit_price_binner
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.metrics import (
    r2_score,
    root_mean_squared_error,
)
from repro.ml.model_selection import CrossValidationResult, cross_validate_classifier
from repro.ml.preprocessing import FrameEncoder
from repro.ml.serialize import forest_from_dict, forest_to_dict
from repro.util.rng import derive_seed

#: The paper's published figures for the selected model (section 5.4),
#: used by tests/benches as reproduction targets.
PAPER_TP_RATE = 0.829
PAPER_FP_RATE = 0.068
PAPER_PRECISION = 0.835
PAPER_RECALL = 0.829
PAPER_AUCROC = 0.964


@dataclass
class EncryptedPriceModel:
    """A fitted price estimator: features -> estimated CPM.

    ``time_correction`` is the PME's section-6.2 drift coefficient: a
    multiplicative correction applied to every CPM estimate.  A model
    trained in-process carries the neutral ``1.0``; a model loaded from
    a PME package (:meth:`from_package`) carries whatever coefficient
    the PME stamped into the package, so packaged-then-loaded models
    produce time-corrected estimates everywhere -- the YourAdValue
    ledger, the serve ``/estimate`` path, batch scoring.
    """

    feature_names: list[str]
    encoder: FrameEncoder
    binner: PriceBinner
    forest: RandomForestClassifier
    time_correction: float = 1.0

    @classmethod
    def train(
        cls,
        feature_rows: Sequence[Mapping[str, Hashable]],
        prices: Sequence[float],
        feature_names: Sequence[str] | None = None,
        n_classes: int = 4,
        n_estimators: int = 60,
        max_depth: int = 18,
        seed: int = 0,
        workers: int | None = 1,
    ) -> "EncryptedPriceModel":
        """Fit the binner, encoder and forest on campaign ground truth.

        ``workers`` parallelises forest training across a process pool
        (one member tree per task); any value is bit-identical to
        ``workers=1`` -- see :class:`repro.ml.forest.RandomForestClassifier`.
        """
        if len(feature_rows) != len(prices):
            raise ValueError("feature_rows and prices lengths differ")
        if len(feature_rows) < 10:
            raise ValueError("need at least 10 training impressions")
        names = (
            list(feature_names)
            if feature_names is not None
            else sorted({k for row in feature_rows for k in row})
        )
        binner = fit_price_binner(list(prices), n_classes=n_classes)
        y = binner.assign(list(prices))
        encoder = FrameEncoder(names)
        x = encoder.fit_transform(list(feature_rows))
        forest = RandomForestClassifier(
            n_estimators=n_estimators,
            max_depth=max_depth,
            min_samples_leaf=2,
            oob_score=True,
            seed=derive_seed(seed, "price-forest"),
            workers=workers,
        )
        forest.fit(x, y)
        return cls(feature_names=names, encoder=encoder, binner=binner, forest=forest)

    # Price estimates go through :class:`repro.core.estimator.Estimator`,
    # the one estimation API (prices, classes, probabilities and spans in
    # one pass).

    # -- evaluation --------------------------------------------------------

    def cross_validate(
        self,
        feature_rows: Sequence[Mapping[str, Hashable]],
        prices: Sequence[float],
        n_folds: int = 10,
        n_runs: int = 10,
        seed: int = 0,
        workers: int | None = 1,
    ) -> CrossValidationResult:
        """The paper's 10-fold x 10-run CV protocol on the same data."""
        y = self.binner.assign(list(prices))
        x = self.encoder.transform(list(feature_rows))
        forest_params = dict(
            n_estimators=self.forest.n_estimators,
            max_depth=self.forest.max_depth,
            min_samples_leaf=self.forest.min_samples_leaf,
            seed=derive_seed(seed, "cv-forest"),
            workers=workers,
        )
        return cross_validate_classifier(
            lambda: RandomForestClassifier(**forest_params),
            x,
            y,
            n_folds=n_folds,
            n_runs=n_runs,
            seed=seed,
        )

    # -- serialisation -----------------------------------------------------

    def to_package(self, version: int = 1) -> dict:
        """The JSON model package shipped to YourAdValue clients."""
        return {
            "kind": "yav_price_model",
            "version": version,
            "feature_names": list(self.feature_names),
            "time_correction": float(self.time_correction),
            "encoder": self.encoder.to_dict(),
            "binner": self.binner.to_dict(),
            "forest": forest_to_dict(self.forest),
        }

    @classmethod
    def from_package(cls, payload: dict) -> "EncryptedPriceModel":
        """Rebuild the estimator from a package, coefficient included.

        The PME stamps ``time_correction`` into every package
        (:meth:`repro.core.pme.PriceModelingEngine.package_model`); it
        must survive the round trip or every client-side estimate is
        silently un-corrected (the pre-PR-3 bug).  Packages written
        before the field existed default to the neutral 1.0.
        """
        if payload.get("kind") != "yav_price_model":
            raise ValueError("not a YourAdValue model package")
        correction = float(payload.get("time_correction", 1.0))
        if not correction > 0:
            raise ValueError(f"time_correction must be positive, got {correction!r}")
        return cls(
            feature_names=list(payload["feature_names"]),
            encoder=FrameEncoder.from_dict(payload["encoder"]),
            binner=PriceBinner.from_dict(payload["binner"]),
            forest=forest_from_dict(payload["forest"]),
            time_correction=correction,
        )


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
