"""The fitted price model: the one entry point for price estimates.

:class:`Estimator` is the paper's section-5.4 encrypted-price model: a
Random Forest classifier over 4 log-price classes, trained on probe
campaign ground truth, estimating each encrypted notification's price
as the representative (median) CPM of the predicted class.

* :meth:`Estimator.train` fits it; :meth:`Estimator.to_package` /
  :meth:`Estimator.from_package` round-trip the JSON model package the
  PME ships to YourAdValue clients (selected features, category
  vocabulary, the tree ensemble and class representatives -- everything
  needed to estimate prices client-side with no training code).
* :meth:`Estimator.estimate` takes a batch of feature rows and returns
  an :class:`EstimateResult`: per-row CPM estimates and predicted
  classes.

The price of a row is ``binner.estimate(argmax(proba)) *
time_correction``: the probability matrix is computed once and classes
and prices are derived from it, so batched and single-row estimates are
bit-identical.

Observability: every :meth:`Estimator.estimate` call runs under an
``estimator.estimate`` stage with ``estimator.encode`` /
``forest.inference`` / ``estimator.time_correction`` child spans.  When
an outer trace is active (a serve micro-batch flush, ``repro
pipeline``), they nest directly under the caller's current span, so a
request trace shows the estimator's internal phase split without any
extra wiring.  :meth:`Estimator.estimate_one`, the per-notification
path of the YourAdValue client, opens none of these; only the forest's
own ``forest.predict_proba`` span records it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.core.binning import PriceBinner, fit_price_binner
from repro.ml.forest import RandomForestClassifier
from repro.ml.model_selection import CrossValidationResult, cross_validate_classifier
from repro.ml.preprocessing import FrameEncoder
from repro.ml.serialize import forest_from_dict, forest_to_dict
from repro.util.rng import derive_seed

__all__ = ["EstimateResult", "Estimator"]


@dataclass(frozen=True)
class EstimateResult:
    """One batch estimation: ``prices`` is the time-corrected CPM
    estimate per row, ``classes`` the predicted price class per row."""

    prices: np.ndarray
    classes: np.ndarray

    def __len__(self) -> int:
        return int(self.prices.shape[0])


@dataclass
class Estimator:
    """A fitted price model: features -> estimated CPM.

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
    ) -> "Estimator":
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
    def from_package(cls, payload: dict) -> "Estimator":
        """Rebuild the model from a package, coefficient included.

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

    # -- estimation --------------------------------------------------------

    def estimate(self, rows: Sequence[Mapping[str, Hashable]]) -> EstimateResult:
        """Estimate CPMs for a batch of feature rows: one encode, one
        pass through the forest arena, one scoring step."""
        rows = list(rows)
        with obs.stage(
            "estimator.estimate", rows=len(rows), model_features=len(self.feature_names)
        ) as st:
            with obs.span("estimator.encode", rows=len(rows)):
                x = self.encoder.transform(rows)
            with obs.span("forest.inference", rows=len(rows)):
                proba = self.forest.predict_proba(x)
            with obs.span("estimator.time_correction", tc=self.time_correction):
                classes, prices = self._prices(proba)
            st.set(mean_cpm=float(prices.mean()) if len(prices) else 0.0)
        return EstimateResult(prices=prices, classes=classes)

    def estimate_one(self, row: Mapping[str, Hashable]) -> float:
        """Scalar convenience: the CPM estimate for one feature row.

        The scoring of :meth:`estimate` without what only a batch needs:
        no ``estimator.estimate`` stage or :class:`EstimateResult`.
        Under an active trace the forest's own ``forest.predict_proba``
        span still records.
        """
        proba = self.forest.predict_proba(self.encoder.transform([row]))
        _, prices = self._prices(proba)
        return float(prices[0])

    def _prices(self, proba: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predicted classes and time-corrected CPMs of probability rows."""
        classes = np.argmax(proba, axis=1)
        return classes, self.binner.estimate(classes) * self.time_correction
