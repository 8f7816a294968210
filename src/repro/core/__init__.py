"""The paper's primary contribution: the price-transparency methodology.

Price Modeling Engine (bootstrap -> probe campaigns -> model ->
package), the encrypted-price classifier, per-user cost computation
(V_u = C_u + E_u), the YourAdValue client, the anonymous contribution
channel, and the ARPU market validation.
"""

from repro.core.binning import PriceBinner, fit_price_binner
from repro.core.campaigns import (
    PROBE_AGGRESSIVENESS,
    PROBE_DSP_NAME,
    PROBE_MAX_BID_CPM,
    CampaignResult,
    ProbeImpression,
    ProbeSetup,
    RecordingDsp,
    ReportRow,
    build_probe_setups,
    run_campaign_a1,
    run_campaign_a2,
    run_probe_campaign,
)
from repro.core.contributions import (
    ALLOWED_FIELDS,
    FORBIDDEN_FIELDS,
    ContributionError,
    ContributionServer,
)
from repro.core.costmodels import (
    DEFAULT_CPC_SHARE,
    DEFAULT_CTR,
    CostBounds,
    CostModelAssumptions,
    cost_bounds,
)
from repro.core.cost import (
    CostDistribution,
    ExchangeRevenue,
    UserCost,
    compute_user_costs,
    estimation_accuracy,
    exchange_revenue_estimates,
    observation_features,
)
from repro.core.estimator import EstimateResult, Estimator
from repro.core.feature_selection import (
    DimensionalityReducer,
    SelectionReport,
    group_of,
)
from repro.core.pme import (
    PAPER_FEATURE_SET,
    PmeState,
    PriceModelingEngine,
    mopub_cleartext_prices,
)
from repro.core.price_model import (
    PAPER_AUCROC,
    PAPER_FP_RATE,
    PAPER_PRECISION,
    PAPER_RECALL,
    PAPER_TP_RATE,
    RegressionBaselineResult,
    regression_baseline,
)
from repro.core.validation import (
    REPORTED_ARPU,
    ArpuValidation,
    MarketFactors,
    extrapolate_user_value_usd,
    validate_arpu,
)
from repro.core.reporting import (
    render_regulator_report,
    render_transparency_report,
)
from repro.core.youradvalue import LedgerEntry, ToolbarSummary, YourAdValue

__all__ = [
    "PriceBinner",
    "fit_price_binner",
    "ProbeSetup",
    "ProbeImpression",
    "CampaignResult",
    "RecordingDsp",
    "ReportRow",
    "build_probe_setups",
    "run_probe_campaign",
    "run_campaign_a1",
    "run_campaign_a2",
    "PROBE_DSP_NAME",
    "PROBE_MAX_BID_CPM",
    "PROBE_AGGRESSIVENESS",
    "DimensionalityReducer",
    "SelectionReport",
    "group_of",
    "PriceModelingEngine",
    "PmeState",
    "PAPER_FEATURE_SET",
    "mopub_cleartext_prices",
    "Estimator",
    "EstimateResult",
    "regression_baseline",
    "RegressionBaselineResult",
    "PAPER_TP_RATE",
    "PAPER_FP_RATE",
    "PAPER_PRECISION",
    "PAPER_RECALL",
    "PAPER_AUCROC",
    "UserCost",
    "CostDistribution",
    "compute_user_costs",
    "observation_features",
    "estimation_accuracy",
    "ExchangeRevenue",
    "exchange_revenue_estimates",
    "YourAdValue",
    "LedgerEntry",
    "ToolbarSummary",
    "ContributionServer",
    "ContributionError",
    "ALLOWED_FIELDS",
    "FORBIDDEN_FIELDS",
    "CostModelAssumptions",
    "CostBounds",
    "cost_bounds",
    "DEFAULT_CTR",
    "DEFAULT_CPC_SHARE",
    "render_transparency_report",
    "render_regulator_report",
    "MarketFactors",
    "ArpuValidation",
    "validate_arpu",
    "extrapolate_user_value_usd",
    "REPORTED_ARPU",
]
