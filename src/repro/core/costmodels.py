"""Cost-model sensitivity: how conservative is the CPM assumption?

The paper's stated limitation (section 8): passive measurement cannot
tell which buying model priced each slot -- Cost-Per-Impression (CPM,
paid on render) or Cost-Per-Click (CPC, paid only when clicked) -- so
it books every charge price as CPM, "computing the maximum cost
advertisers pay for a user".

This module quantifies that bound.  Given assumptions about the market
mix of cost models and click behaviour, it converts the CPM-assumption
cost V_u into an interval [lower, upper]:

* **upper** -- every price was CPM (the paper's number);
* **expected** -- a ``cpc_share`` of impressions were actually CPC, so
  only clicked ones were paid (advertiser CPC prices are quoted per
  click; the nURL's price interpreted per-impression overstates those
  by 1/CTR);
* **lower** -- the degenerate all-CPC case.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import require_in_unit_interval


#: Industry-typical mobile display click-through rate, ~0.5%.
DEFAULT_CTR = 0.005

#: Share of mobile programmatic inventory sold per-click rather than
#: per-impression (performance campaigns).
DEFAULT_CPC_SHARE = 0.25


@dataclass(frozen=True)
class CostModelAssumptions:
    """The market-mix assumptions of the sensitivity analysis."""

    cpc_share: float = DEFAULT_CPC_SHARE
    click_through_rate: float = DEFAULT_CTR

    def __post_init__(self) -> None:
        require_in_unit_interval(self.cpc_share, "cpc_share")
        require_in_unit_interval(self.click_through_rate, "click_through_rate")

    @property
    def expected_multiplier(self) -> float:
        """Expected actual-cost / CPM-assumption-cost ratio.

        CPM inventory is paid in full; CPC inventory is paid only on
        the clicked fraction of impressions.
        """
        return (1.0 - self.cpc_share) + self.cpc_share * self.click_through_rate

    @property
    def lower_multiplier(self) -> float:
        """The all-CPC worst case."""
        return self.click_through_rate


@dataclass(frozen=True)
class CostBounds:
    """The resolved interval for one CPM-assumption cost figure."""

    cpm_assumption: float     # the paper's V_u (upper bound)
    expected: float
    lower: float

    @property
    def upper(self) -> float:
        return self.cpm_assumption


def cost_bounds(
    cpm_assumption_cost: float,
    assumptions: CostModelAssumptions | None = None,
) -> CostBounds:
    """Bound a CPM-assumption cost (in any unit) under the model mix."""
    if cpm_assumption_cost < 0:
        raise ValueError("cost must be non-negative")
    assumptions = assumptions or CostModelAssumptions()
    return CostBounds(
        cpm_assumption=cpm_assumption_cost,
        expected=cpm_assumption_cost * assumptions.expected_multiplier,
        lower=cpm_assumption_cost * assumptions.lower_multiplier,
    )
