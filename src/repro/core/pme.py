"""The Price Modeling Engine (paper section 3.2).

The PME is the centralised back-end of the methodology.  Its lifecycle:

1. **bootstrap** -- analyse an offline weblog (dataset D) and run
   dimensionality reduction over the cleartext prices to select the
   compact feature set S;
2. **probe** -- execute the A1/A2 probing ad-campaigns to collect
   ground-truth encrypted and cleartext prices under the setups S
   affords;
3. **train** -- fit the encrypted-price classifier on A1's ground
   truth, evaluating it with the paper's 10x10 cross-validation;
4. **package** -- emit the JSON model package YourAdValue clients
   download, including the time-correction coefficient derived from
   A2-vs-D cleartext medians;
5. **retrain** -- fold in anonymous client contributions at any time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.analyzer.pipeline import AnalysisResult
from repro.core.campaigns import (
    CampaignResult,
    run_campaign_a1,
    run_campaign_a2,
)
from repro.core.estimator import Estimator
from repro.core.feature_selection import DimensionalityReducer, SelectionReport
from repro.ml.model_selection import CrossValidationResult
from repro.stats.distributions import median_ratio
from repro.trace.simulate import MarketState
from repro.util.rng import derive_seed

#: The paper's final selected feature set S (section 5.1) -- the PME
#: falls back to it when asked to skip the selection step.
PAPER_FEATURE_SET: tuple[str, ...] = (
    "context",
    "device_type",
    "city",
    "time_of_day",
    "day_of_week",
    "slot_size",
    "publisher_iab",
    "adx",
)


@dataclass
class PmeState:
    """Everything the PME has learned so far."""

    selection: SelectionReport | None = None
    selected_features: list[str] = field(default_factory=list)
    campaign_a1: CampaignResult | None = None
    campaign_a2: CampaignResult | None = None
    model: Estimator | None = None
    evaluation: CrossValidationResult | None = None
    time_correction: float = 1.0


class PriceModelingEngine:
    """The PME back-end service."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self.state = PmeState()

    # -- step 1: bootstrap from an offline weblog ---------------------------

    def bootstrap(
        self,
        analysis: AnalysisResult,
        use_paper_features: bool = False,
        reducer: DimensionalityReducer | None = None,
    ) -> list[str]:
        """Select the feature set S from dataset D's cleartext prices.

        ``use_paper_features=True`` skips the expensive selection and
        adopts the paper's published S (useful for fast pipelines); the
        default actually runs the reduction.
        """
        if use_paper_features:
            self.state.selected_features = list(PAPER_FEATURE_SET)
            return self.state.selected_features

        with obs.stage(
            "pme.bootstrap", observations=len(analysis.observations)
        ) as st:
            rows = []
            prices = []
            for observation, det in zip(
                analysis.observations, analysis.notifications
            ):
                if (
                    observation.is_encrypted
                    or observation.price_cpm is None
                    or observation.price_cpm <= 0
                ):
                    continue
                rows.append(analysis.extractor.full_vector(det))
                prices.append(observation.price_cpm)
            if len(rows) < 50:
                raise ValueError("not enough cleartext observations to bootstrap")
            reducer = reducer or DimensionalityReducer(
                seed=derive_seed(self.seed, "dimred")
            )
            report = reducer.fit(rows, prices)
            self.state.selection = report
            self.state.selected_features = list(report.selected_features)
            st.set(
                cleartext_rows=len(rows),
                selected=len(self.state.selected_features),
            )
        return self.state.selected_features

    # -- step 2: probing ad-campaigns ---------------------------------------

    def run_probe_campaigns(
        self,
        market: MarketState,
        auctions_per_setup: int = 185,
    ) -> tuple[CampaignResult, CampaignResult]:
        """Execute A1 (encrypted ADXs) and A2 (MoPub cleartext).

        185 auctions per setup is the paper's section-5.2 sizing (the
        within-campaign margin-of-error bound).
        """
        with obs.stage(
            "pme.probe_campaigns", auctions_per_setup=auctions_per_setup
        ):
            with obs.span("pme.campaign_a1"):
                a1 = run_campaign_a1(
                    market, seed=self.seed, auctions_per_setup=auctions_per_setup
                )
            with obs.span("pme.campaign_a2"):
                a2 = run_campaign_a2(
                    market, seed=self.seed, auctions_per_setup=auctions_per_setup
                )
        self.state.campaign_a1 = a1
        self.state.campaign_a2 = a2
        return a1, a2

    # -- step 3: model training ---------------------------------------------

    def train_model(
        self,
        campaign: CampaignResult | None = None,
        feature_names: list[str] | None = None,
        n_classes: int = 4,
        evaluate: bool = True,
        cv_folds: int = 10,
        cv_runs: int = 10,
        workers: int | None = 1,
    ) -> Estimator:
        """Fit the encrypted-price classifier on campaign ground truth.

        ``workers`` parallelises forest training (and the CV refits)
        across a process pool; results are bit-identical to
        ``workers=1``.
        """
        campaign = campaign or self.state.campaign_a1
        if campaign is None:
            raise RuntimeError("run the probe campaigns before training")
        names = feature_names or self.state.selected_features or list(PAPER_FEATURE_SET)
        rows = campaign.feature_rows()
        prices = list(campaign.prices())
        with obs.stage(
            "pme.train_model",
            rows=len(rows),
            n_classes=n_classes,
            workers=workers or 0,
        ):
            model = Estimator.train(
                rows,
                prices,
                feature_names=[n for n in names if n != "publisher"],
                n_classes=n_classes,
                seed=derive_seed(self.seed, "model"),
                workers=workers,
            )
            self.state.model = model
            if evaluate:
                with obs.span(
                    "pme.cross_validate", folds=cv_folds, runs=cv_runs
                ):
                    self.state.evaluation = model.cross_validate(
                        rows, prices, n_folds=cv_folds, n_runs=cv_runs,
                        seed=derive_seed(self.seed, "eval"),
                        workers=workers,
                    )
        return model

    # -- step 4: time correction & packaging --------------------------------

    def compute_time_correction(self, dataset_mopub_prices: list[float]) -> float:
        """Cleartext price shift between D (2015) and A2 (2016).

        The ratio of A2's median to D's MoPub median, applied as a
        multiplicative correction to 2015 cleartext sums (section 6.2).
        """
        if self.state.campaign_a2 is None:
            raise RuntimeError("run campaign A2 first")
        with obs.span(
            "pme.time_correction", anchor_prices=len(dataset_mopub_prices)
        ):
            a2_prices = self.state.campaign_a2.prices()
            correction = median_ratio(a2_prices, dataset_mopub_prices)
        self.state.time_correction = float(correction)
        return self.state.time_correction

    def package_model(self) -> dict:
        """The artefact YourAdValue downloads.

        The package carries the PME's section-6.2 drift coefficient;
        :meth:`Estimator.from_package` restores it so every
        client-side estimate (YourAdValue ledger entries, the serve
        ``/estimate`` path) comes out time-corrected.
        """
        if self.state.model is None:
            raise RuntimeError("train a model before packaging")
        package = self.state.model.to_package()
        package["time_correction"] = self.state.time_correction
        package["selected_features"] = list(
            self.state.selected_features or PAPER_FEATURE_SET
        )
        return package

    # -- step 5: retraining on contributions --------------------------------

    def retrain_with_contributions(
        self,
        contributed_rows: list[dict],
        contributed_prices: list[float],
        n_classes: int = 4,
        workers: int | None = 1,
    ) -> Estimator:
        """Fold anonymous client contributions into a fresh model.

        Contributions extend (never replace) the latest campaign ground
        truth, so a burst of low-quality contributions cannot erase the
        calibrated baseline.
        """
        if self.state.campaign_a1 is None:
            raise RuntimeError("no campaign ground truth to extend")
        rows = self.state.campaign_a1.feature_rows() + list(contributed_rows)
        prices = list(self.state.campaign_a1.prices()) + list(contributed_prices)
        names = self.state.selected_features or list(PAPER_FEATURE_SET)
        with obs.stage(
            "pme.retrain",
            contributed=len(contributed_rows),
            rows=len(rows),
            workers=workers or 0,
        ):
            model = Estimator.train(
                rows,
                prices,
                feature_names=[n for n in names if n != "publisher"],
                n_classes=n_classes,
                seed=derive_seed(self.seed, "retrain"),
                workers=workers,
            )
        self.state.model = model
        return model


def mopub_cleartext_prices(analysis: AnalysisResult) -> list[float]:
    """D's MoPub cleartext prices (the time-correction anchor)."""
    return [
        o.price_cpm
        for o in analysis.cleartext()
        if o.adx == "MoPub" and o.price_cpm is not None
    ]
