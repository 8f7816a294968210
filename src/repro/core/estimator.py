"""The estimation facade: the one entry point for price estimates.

:class:`Estimator` wraps a fitted
:class:`repro.core.price_model.EncryptedPriceModel`:

* :meth:`Estimator.estimate` takes a batch of feature rows and returns
  an :class:`EstimateResult` carrying everything in one pass: per-row
  CPM estimates, predicted classes, the full class-probability matrix,
  the time-correction coefficient, and the observability spans
  recorded while computing them.
* :meth:`Estimator.explain` produces the user-facing "why this price?"
  payload.

The price of a row is ``binner.estimate(argmax(proba)) *
time_correction``: the probability matrix is computed once and classes
and prices are derived from it, so batched, chunked and single-row
estimates are bit-identical.

Observability: every :meth:`Estimator.estimate` call runs under a
local ``estimator.estimate`` trace with ``estimator.encode`` /
``forest.inference`` / ``estimator.time_correction`` child spans.  When
an outer trace is active (a serve micro-batch flush, ``repro
pipeline``), the local spans nest directly under the caller's current
span, so a request trace shows the estimator's internal phase split
without any extra wiring.  :meth:`Estimator.estimate_one`, the
per-notification path of the YourAdValue client, opens none of these;
only the forest's own ``forest.predict_proba`` span records it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

import numpy as np

from repro import obs
from repro.core.price_model import EncryptedPriceModel
from repro.util.validation import require_positive

__all__ = ["EstimateResult", "Estimator"]


@dataclass(frozen=True)
class EstimateResult:
    """One batch estimation: prices, classes, probabilities, spans.

    ``prices`` is the time-corrected CPM estimate per row; ``classes`` the predicted price class
    per row; ``proba`` the ``(n_rows, n_classes)`` forest probability
    matrix; ``time_correction`` the multiplicative drift coefficient
    already applied to ``prices``; ``spans`` the finished span records
    (flat dicts, JSON-serialisable) of the internal phases.
    """

    prices: np.ndarray
    classes: np.ndarray
    proba: np.ndarray
    time_correction: float
    spans: tuple[dict, ...] = field(default=())

    def __len__(self) -> int:
        return int(self.prices.shape[0])

    def price_of(self, index: int) -> float:
        """The scalar CPM estimate for one row."""
        return float(self.prices[index])

    def to_dict(self) -> dict:
        """JSON-friendly form (serve responses, CLI output)."""
        return {
            "prices": [float(p) for p in self.prices],
            "classes": [int(c) for c in self.classes],
            "proba": [[float(p) for p in row] for row in self.proba],
            "time_correction": float(self.time_correction),
        }


class Estimator:
    """Facade over a fitted :class:`EncryptedPriceModel`.

    Wraps (does not copy) the model: hot-reloading a new package means
    building a new ``Estimator`` around the new model, which is what
    :func:`repro.serve.store.build_snapshot` does.
    """

    __slots__ = ("model",)

    def __init__(self, model: EncryptedPriceModel):
        if not isinstance(model, EncryptedPriceModel):
            raise TypeError(
                f"Estimator wraps an EncryptedPriceModel, got {type(model).__name__}"
            )
        self.model = model

    @classmethod
    def from_package(cls, payload: dict) -> "Estimator":
        """Build the facade straight from a YourAdValue model package."""
        return cls(EncryptedPriceModel.from_package(payload))

    # -- convenience passthroughs ------------------------------------------

    @property
    def feature_names(self) -> list[str]:
        return self.model.feature_names

    @property
    def time_correction(self) -> float:
        return self.model.time_correction

    def to_package(self, version: int = 1) -> dict:
        return self.model.to_package(version=version)

    # -- estimation --------------------------------------------------------

    def estimate(
        self,
        rows: Sequence[Mapping[str, Hashable]],
        *,
        chunk_size: int | None = None,
    ) -> EstimateResult:
        """Estimate CPMs for a batch of feature rows.

        ``chunk_size`` optionally bounds how many rows are encoded and
        routed through the forest per pass (memory control for very
        large batches); results are bit-identical for any chunking
        because encoding and inference are row-independent.
        """
        if chunk_size is not None:
            require_positive(chunk_size, "chunk_size")
        rows = list(rows)
        model = self.model
        with obs.stage(
            "estimator.estimate", rows=len(rows), model_features=len(model.feature_names)
        ) as st:
            collector = obs.active_trace()
            mark = len(collector.records) if collector is not None else 0
            proba_parts: list[np.ndarray] = []
            step = chunk_size if chunk_size is not None else max(1, len(rows))
            for lo in range(0, len(rows), step):
                chunk = rows[lo : lo + step]
                with obs.span("estimator.encode", rows=len(chunk)):
                    x = model.encoder.transform(chunk)
                with obs.span("forest.inference", rows=len(chunk)):
                    proba_parts.append(model.forest.predict_proba(x))
            if proba_parts:
                proba = (
                    proba_parts[0]
                    if len(proba_parts) == 1
                    else np.concatenate(proba_parts, axis=0)
                )
            else:
                proba = np.zeros((0, model.binner.n_classes), dtype=float)
            with obs.span("estimator.time_correction", tc=model.time_correction):
                classes, prices = self._prices(proba)
            st.set(mean_cpm=float(prices.mean()) if len(prices) else 0.0)
            spans: tuple[dict, ...] = ()
            if collector is not None:
                spans = tuple(r.to_dict() for r in collector.records[mark:])
        return EstimateResult(
            prices=prices,
            classes=classes,
            proba=proba,
            time_correction=model.time_correction,
            spans=spans,
        )

    def estimate_one(self, row: Mapping[str, Hashable]) -> float:
        """Scalar convenience: the CPM estimate for one feature row.

        The scoring of :meth:`estimate` without what only a batch needs:
        no ``estimator.estimate`` stage, span capture or
        :class:`EstimateResult`.  Under an active trace the forest's own
        ``forest.predict_proba`` span still records.
        """
        model = self.model
        proba = model.forest.predict_proba(model.encoder.transform([row]))
        _, prices = self._prices(proba)
        return float(prices[0])

    def _prices(self, proba: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Predicted classes and time-corrected CPMs of probability rows."""
        model = self.model
        classes = np.argmax(proba, axis=1)
        return classes, model.binner.estimate(classes) * model.time_correction

    def explain(self, row: Mapping[str, Hashable]) -> dict:
        """The user-facing "why this price?" payload for one row.

        Predicted class, representative CPM (time-corrected), class
        probabilities, top feature importances, and the decision path of
        the first member tree.
        """
        model = self.model
        with obs.stage("estimator.explain"):
            x = model.encoder.transform([row])
            probs = model.forest.predict_proba(x)[0]
            cls = int(np.argmax(probs))
            path = [
                {
                    "feature": model.feature_names[feature],
                    "threshold": threshold,
                    "went_left": went_left,
                    "value": row.get(model.feature_names[feature]),
                }
                for feature, threshold, went_left in model.forest.trees_[
                    0
                ].decision_path(x[0])
            ]
            importances = model.forest.feature_importances_
            top = []
            if importances is not None:
                order = np.argsort(importances)[::-1][:5]
                top = [
                    {
                        "feature": model.feature_names[i],
                        "importance": float(importances[i]),
                    }
                    for i in order
                ]
        return {
            "predicted_class": cls,
            "estimated_cpm": float(
                model.binner.representative(cls) * model.time_correction
            ),
            "class_probabilities": [float(p) for p in probs],
            "top_features": top,
            "decision_path": path,
        }
