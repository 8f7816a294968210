"""Ad campaigns: targeting and budgets.

Campaigns are what DSPs bid on behalf of.  The targeting vocabulary is
exactly the control-variable set of the paper's probe campaigns
(Table 5): location, web-interaction type, time of day, day of week,
device type, OS, ad size, ADX, IAB category.  The open-market campaigns
of the trace simulator use loose targeting; the probe campaigns of
:mod:`repro.core.campaigns` use one fully pinned setup each.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rtb.openrtb import BidRequest
from repro.util.timeutil import is_weekend

#: Table-5 time-of-day campaign windows (coarser than the analyzer's
#: six four-hour buckets).
CAMPAIGN_DAYPARTS: tuple[str, ...] = ("12am-9am", "9am-6pm", "6pm-12am")


def campaign_daypart(ts: float) -> str:
    """Map a timestamp into the Table-5 daypart windows."""
    from repro.util.timeutil import hour_of

    hour = hour_of(ts)
    if hour < 9:
        return "12am-9am"
    if hour < 18:
        return "9am-6pm"
    return "6pm-12am"


@dataclass(frozen=True)
class TargetingSpec:
    """Audience filter for a campaign.

    Every field is an optional frozenset; ``None`` means "any".  A
    request matches when every non-None constraint is satisfied.
    """

    cities: frozenset[str] | None = None
    contexts: frozenset[str] | None = None        # {"app", "web"}
    dayparts: frozenset[str] | None = None        # CAMPAIGN_DAYPARTS values
    day_types: frozenset[str] | None = None       # {"weekday", "weekend"}
    device_types: frozenset[str] | None = None    # {"smartphone", "tablet"}
    oses: frozenset[str] | None = None            # {"Android", "iOS", ...}
    slot_sizes: frozenset[str] | None = None      # {"320x50", ...}
    adxs: frozenset[str] | None = None
    iab_categories: frozenset[str] | None = None

    def matches(self, request: BidRequest) -> bool:
        """True when the bid request satisfies every constraint."""
        if self.cities is not None and request.geo.city not in self.cities:
            return False
        if self.contexts is not None and request.context not in self.contexts:
            return False
        if self.dayparts is not None and campaign_daypart(request.timestamp) not in self.dayparts:
            return False
        if self.day_types is not None:
            day_type = "weekend" if is_weekend(request.timestamp) else "weekday"
            if day_type not in self.day_types:
                return False
        if self.device_types is not None and request.device.device_type not in self.device_types:
            return False
        if self.oses is not None and request.device.os not in self.oses:
            return False
        if self.slot_sizes is not None and request.imp.slot_size.label not in self.slot_sizes:
            return False
        if self.adxs is not None and request.adx not in self.adxs:
            return False
        if self.iab_categories is not None and request.publisher_iab not in self.iab_categories:
            return False
        return True

    @classmethod
    def any(cls) -> "TargetingSpec":
        """A spec that matches everything."""
        return cls()


@dataclass
class Campaign:
    """One ad campaign with a budget and targeting.

    Mutable on purpose: the DSP records spend and wins as auctions
    resolve.  ``max_bid_cpm`` is the bid cap the paper gave its DSP "to
    safeguard that the allocated budget will not be consumed quickly".
    """

    campaign_id: str
    advertiser: str
    targeting: TargetingSpec = field(default_factory=TargetingSpec.any)
    max_bid_cpm: float = 10.0
    budget_usd: float = float("inf")
    spent_usd: float = 0.0
    impressions_won: int = 0

    def __post_init__(self) -> None:
        if self.max_bid_cpm <= 0:
            raise ValueError(f"max_bid_cpm must be positive, got {self.max_bid_cpm}")
        if self.budget_usd < 0:
            raise ValueError(f"negative budget {self.budget_usd}")

    @property
    def remaining_budget_usd(self) -> float:
        return max(0.0, self.budget_usd - self.spent_usd)

    @property
    def exhausted(self) -> bool:
        """True when the budget cannot pay for one more impression at cap."""
        return self.remaining_budget_usd < self.max_bid_cpm / 1000.0

    def eligible_for(self, request: BidRequest) -> bool:
        """Can this campaign bid on the request at all?"""
        return not self.exhausted and self.targeting.matches(request)

    def record_win(self, charge_price_cpm: float) -> None:
        """Account for a won impression at the given charge price."""
        if charge_price_cpm < 0:
            raise ValueError(f"negative charge price {charge_price_cpm}")
        self.spent_usd += charge_price_cpm / 1000.0
        self.impressions_won += 1
