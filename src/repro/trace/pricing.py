"""The ground-truth price process of the simulated ad market.

This is the reproduction's stand-in for "what advertisers actually pay"
in the live ecosystem: a feature-multiplicative valuation of each
impression,

    value = base * city * time-of-day * day-of-week * OS * device
                 * context(app/web) * slot-size * IAB * ADX * drift(t)
                 * impression shock

consumed by the DSP bid engines.  Every multiplier table is calibrated
to the paper's section-4 measurements (apps 2.6x web, iOS > Android,
IAB3 dear / IAB15 cheap, MPU dearest slot, big cities lower median and
wider spread, morning prices higher, 2015->2016 upward drift).  Charge
prices then *emerge* from second-price competition among noisy bidders,
so the learned structure the PME recovers is causal rather than painted
onto the data.

The impression-level shock is derived by hashing the auction id, which
keeps the valuation deterministic per auction (all DSPs share the same
common-value component) while remaining random across auctions.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from repro.rtb.openrtb import BidRequest
from repro.trace.geography import city_by_name
from repro.util.timeutil import day_of_week, hour_of, month_of, year_of

#: Pre-competition valuation anchor.  Calibrated so that *cleared*
#: second-price charge prices land at the paper's section-4.4 averages
#: (mobile web ~0.273 CPM, apps ~0.712 CPM = 2.6x): competition among
#: ~8 noisy bidders plus the >1 average of the categorical multipliers
#: lifts cleared prices ~1.65x above this anchor.
BASE_CPM = 0.165
APP_MULTIPLIER = 2.6

#: Six four-hour buckets; mornings-to-noon carry higher prices (Fig 6).
TIME_OF_DAY_MULTIPLIERS = (0.92, 1.00, 1.28, 1.15, 1.00, 0.94)

#: Monday..Sunday median multipliers: attention effects are mild in the
#: median (Fig 7) -- Mondays and Sundays slightly up.
DAY_OF_WEEK_MULTIPLIERS = (1.08, 1.00, 1.00, 1.00, 1.02, 0.97, 1.04)

#: Weekday tails run hotter than weekends (Fig 7: higher max prices).
#: Two channels: a small extra shock sigma, and -- the dominant one --
#: business-targeted categories (B2B, finance, real estate) paying a
#: premium during working days, which lifts the pooled upper
#: percentiles exactly where the paper sees them.
WEEKDAY_EXTRA_SIGMA = 0.04
WEEKDAY_BUSINESS_BOOST = 1.35
BUSINESS_CATEGORIES = ("IAB3", "IAB13", "IAB21")

OS_MULTIPLIERS: dict[str, float] = {
    "Android": 1.00,
    "iOS": 1.38,            # Fig 10: iOS draws higher median prices
    "Windows Mobile": 0.80,
    "Other": 0.70,
}

DEVICE_TYPE_MULTIPLIERS: dict[str, float] = {
    "smartphone": 1.00,
    "tablet": 1.10,
}

#: IAB tier-1 price multipliers (Fig 11: IAB3 Business dearest, IAB15
#: Science cheapest; the rest graded between).
IAB_MULTIPLIERS: dict[str, float] = {
    "IAB1": 1.00, "IAB2": 2.00, "IAB3": 6.00, "IAB4": 1.20, "IAB5": 0.70,
    "IAB6": 0.90, "IAB7": 1.30, "IAB8": 1.00, "IAB9": 0.90, "IAB10": 0.95,
    "IAB11": 0.80, "IAB12": 0.85, "IAB13": 3.00, "IAB14": 0.75, "IAB15": 0.30,
    "IAB16": 0.80, "IAB17": 1.20, "IAB18": 1.40, "IAB19": 1.50, "IAB20": 1.80,
    "IAB21": 1.60, "IAB22": 1.60, "IAB23": 0.60, "IAB24": 0.50, "IAB25": 0.50,
    "IAB26": 0.40,
}

#: Slot-size multipliers (Fig 13: price does NOT grow with area -- the
#: 300x250 MPU is dearest, the 300x600 Monster MPU second).
SLOT_MULTIPLIERS: dict[str, float] = {
    "300x250": 1.72, "300x600": 1.43, "728x90": 1.00, "160x600": 0.95,
    "120x600": 0.90, "468x60": 0.85, "320x50": 0.78, "300x50": 0.70,
    "336x280": 1.10, "280x250": 0.95, "200x200": 0.80, "316x150": 0.75,
    "800x130": 0.85, "400x300": 0.90, "320x480": 1.05, "480x320": 1.00,
    "350x600": 1.00, "768x1024": 1.15, "1024x768": 1.10,
}

#: Mild per-exchange level differences.
ADX_MULTIPLIERS: dict[str, float] = {
    "MoPub": 1.00, "Adnxs": 1.05, "DoubleClick": 1.10, "OpenX": 0.95,
    "Rubicon": 1.00, "PulsePoint": 0.90, "Turn": 0.95, "MediaMath": 1.00,
    "Smaato": 0.85, "Inneractive": 0.80, "Criteo": 1.05, "AdColony": 0.90,
    "Millennial": 0.85, "Nexage": 0.80, "Amobee": 0.85, "StrikeAd": 0.75,
    "Airpush": 0.70,
}

#: Market-wide price drift per month elapsed since January 2015 --
#: produces the 2015->2016 shift the paper corrects for in section 6.2.
MONTHLY_DRIFT = 0.018


def months_since_2015(ts: float) -> int:
    """Whole months elapsed since January 2015."""
    return (year_of(ts) - 2015) * 12 + (month_of(ts) - 1)


def _hash_unit(token: str) -> float:
    """Deterministic uniform(0,1) from a string token."""
    digest = hashlib.sha256(token.encode()).digest()
    return (int.from_bytes(digest[:8], "big") + 0.5) / 2**64


def _unit_to_normal(u: float) -> float:
    """Inverse-CDF transform via the Acklam/Moro rational approximation.

    Accurate to ~1e-9 over (0,1); avoids a scipy call in the hot path.
    """
    # Beasley-Springer-Moro algorithm.
    a = (2.50662823884, -18.61500062529, 41.39119773534, -25.44106049637)
    b = (-8.47351093090, 23.08336743743, -21.06224101826, 3.13082909833)
    c = (0.3374754822726147, 0.9761690190917186, 0.1607979714918209,
         0.0276438810333863, 0.0038405729373609, 0.0003951896511919,
         0.0000321767881768, 0.0000002888167364, 0.0000003960315187)
    y = u - 0.5
    if abs(y) < 0.42:
        r = y * y
        num = y * (((a[3] * r + a[2]) * r + a[1]) * r + a[0])
        den = (((b[3] * r + b[2]) * r + b[1]) * r + b[0]) * r + 1.0
        return num / den
    r = u if y <= 0 else 1.0 - u
    s = math.log(-math.log(r))
    x = c[0]
    for i in range(1, 9):
        x += c[i] * s**i
    return -x if y < 0 else x


@dataclass(frozen=True)
class GroundTruthPriceModel:
    """The market's common valuation of impressions.

    ``sigma_base`` is the impression-level lognormal shock; per-city
    volatility and the weekday tail widening add to it.  Instances are
    callables compatible with :data:`repro.rtb.bidding.ValueModel`.
    """

    base_cpm: float = BASE_CPM
    sigma_base: float = 0.03
    #: Per-publisher idiosyncratic price level (hash-derived, stable per
    #: domain).  This is why the *exact publisher* feature genuinely
    #: carries extra signal -- and why a model trained on the campaign's
    #: publisher subset overfits the weblog's wider universe (paper
    #: section 5.4).
    sigma_publisher: float = 0.10
    drift_per_month: float = MONTHLY_DRIFT
    iab_multipliers: dict[str, float] = field(
        default_factory=lambda: dict(IAB_MULTIPLIERS)
    )
    #: ``(request, value)`` of the last :meth:`value_cpm` call.  Every
    #: bidder of an auction prices the same request, so the common value
    #: is computed once per auction; holding the request (not its
    #: ``id``) keeps a recycled id from aliasing a dead request.
    _last: tuple[BidRequest | None, float] = field(
        default=(None, 0.0), init=False, repr=False, compare=False
    )

    def deterministic_value(self, request: BidRequest) -> float:
        """The multiplier product, before the impression shock."""
        ts = request.timestamp
        value = self.base_cpm
        if request.geo.city:
            city = city_by_name(request.geo.city)
            value *= city.price_multiplier
        value *= TIME_OF_DAY_MULTIPLIERS[hour_of(ts) // 4]
        value *= DAY_OF_WEEK_MULTIPLIERS[day_of_week(ts)]
        value *= OS_MULTIPLIERS.get(request.device.os, 0.7)
        value *= DEVICE_TYPE_MULTIPLIERS.get(request.device.device_type, 1.0)
        if request.is_app:
            value *= APP_MULTIPLIER
        value *= SLOT_MULTIPLIERS.get(request.imp.slot_size.label, 0.8)
        value *= self.iab_multipliers.get(request.publisher_iab, 0.8)
        if day_of_week(ts) < 5 and request.publisher_iab in BUSINESS_CATEGORIES:
            value *= WEEKDAY_BUSINESS_BOOST
        value *= ADX_MULTIPLIERS.get(request.adx, 0.9)
        value *= 1.0 + self.drift_per_month * months_since_2015(ts)
        if self.sigma_publisher > 0 and request.publisher:
            z = _unit_to_normal(_hash_unit(f"pub:{request.publisher}"))
            value *= math.exp(self.sigma_publisher * z)
        return value

    def shock_sigma(self, request: BidRequest) -> float:
        """Total lognormal sigma of the impression shock."""
        sigma = self.sigma_base
        if request.geo.city:
            sigma += city_by_name(request.geo.city).price_volatility
        if day_of_week(request.timestamp) < 5:
            sigma += WEEKDAY_EXTRA_SIGMA
        return sigma

    def value_cpm(self, request: BidRequest) -> float:
        """Common value of the impression, shock included.

        The shock hashes the auction id so every bidder prices the same
        common-value component -- second-price competition then adds the
        bidder-private spread on top.
        """
        last_request, last_value = self._last
        if last_request is request:
            return last_value
        z = _unit_to_normal(_hash_unit(f"shock:{request.auction_id}"))
        value = self.deterministic_value(request) * math.exp(
            self.shock_sigma(request) * z
        )
        # Frozen dataclass: the memo is the one field that changes.
        object.__setattr__(self, "_last", (request, value))
        return value

    def __call__(self, request: BidRequest) -> float:
        return self.value_cpm(request)


#: Aggressiveness of DSPs that hide their prices: the paper measures
#: encrypted charge prices at ~1.7x cleartext medians (section 6.1),
#: attributing it to aggressive retargeting / high-value audiences.
#: (set slightly above 1.7 because second-price clearing against
#: standard bidders, and late-adopting standard pairs, dilute the
#: realised encrypted/cleartext median ratio back toward ~1.7).
ENCRYPTED_PREMIUM = 1.9
