"""Probe ad-campaigns: ground truth for encrypted prices (section 5.2/5.3).

The paper buys real impressions through a DSP to learn what encrypted
charge prices look like: campaign A1 sweeps 144 experimental setups
(Table 5) across the four price-encrypting exchanges; campaign A2
re-runs the same setups on MoPub (cleartext) to anchor the cleartext
distribution at campaign time and derive the 2015->2016 time shift.

Our executor joins a probe DSP to the simulated market for the
campaign window.  Because auctions clear at the *second* price, bidding
aggressively ("as low or high as needed to get the minimum of
impressions delivered", as the paper instructed its DSP) wins volume
without distorting the charge prices observed -- the probe pays the
competing market's price, which is exactly the quantity being sampled.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from repro import obs
from repro.rtb.adslots import CAMPAIGN_PHONE_SIZES, CAMPAIGN_TABLET_SIZES
from repro.rtb.bidding import Dsp, FeatureBidEngine
from repro.rtb.campaign import CAMPAIGN_DAYPARTS, Campaign, TargetingSpec
from repro.rtb.entities import ENCRYPTING_ADXS
from repro.rtb.openrtb import BidRequest
from repro.trace.browsing import HOURLY_WEIGHTS
from repro.trace.geography import CAMPAIGN_CITIES
from repro.trace.simulate import MarketState
from repro.util.rng import RngRegistry, WeightedDraw, derive_seed
from repro.util.timeutil import (
    CAMPAIGN_A1_PERIOD,
    CAMPAIGN_A2_PERIOD,
    SECONDS_PER_DAY,
    Period,
    day_of_week,
    epoch,
    hour_of,
    is_weekend,
)

PROBE_DSP_NAME = "ProbeDSP"
PROBE_ADVERTISER = "DataTransparencyNGO"

#: Bid cap the paper gave its DSP to protect the budget.  Set above the
#: effective market range: a tight cap would make the probe lose exactly
#: the high-value auctions and truncate the sampled price distribution.
PROBE_MAX_BID_CPM = 60.0

#: Probe bids above market value to win volume; second-price clearing
#: keeps the paid prices unbiased by our own bid level.
PROBE_AGGRESSIVENESS = 2.2


@dataclass(frozen=True)
class ProbeSetup:
    """One Table-5 experimental setup."""

    setup_id: str
    city: str
    context: str          # "app" | "web"
    daypart: str
    day_type: str         # "weekday" | "weekend"
    device_type: str
    os: str
    slot_size: str
    adx: str

    def targeting(self) -> TargetingSpec:
        return TargetingSpec(
            cities=frozenset({self.city}),
            contexts=frozenset({self.context}),
            dayparts=frozenset({self.daypart}),
            day_types=frozenset({self.day_type}),
            device_types=frozenset({self.device_type}),
            oses=frozenset({self.os}),
            slot_sizes=frozenset({self.slot_size}),
            adxs=frozenset({self.adx}),
        )


def build_probe_setups(adxs: tuple[str, ...]) -> list[ProbeSetup]:
    """The paper's 144 experimental setups (Table 5).

    The full grid of cities x interaction x daypart x day-type x
    ad-format is 4 x 2 x 3 x 2 x 3 = 144; device class follows the
    format (tablet formats imply tablets), and OS / target exchange
    rotate deterministically through the grid so every combination is
    represented without exploding the budget.
    """
    setups: list[ProbeSetup] = []
    index = 0
    for city in CAMPAIGN_CITIES:
        for context in ("app", "web"):
            for daypart in CAMPAIGN_DAYPARTS:
                for day_type in ("weekday", "weekend"):
                    for fmt_idx in range(3):
                        tablet = index % 4 == 3
                        slot = (
                            CAMPAIGN_TABLET_SIZES[fmt_idx]
                            if tablet
                            else CAMPAIGN_PHONE_SIZES[fmt_idx]
                        )
                        setups.append(
                            ProbeSetup(
                                setup_id=f"setup-{index:03d}",
                                city=city,
                                context=context,
                                daypart=daypart,
                                day_type=day_type,
                                device_type="tablet" if tablet else "smartphone",
                                os="iOS" if index % 2 else "Android",
                                slot_size=slot,
                                adx=adxs[index % len(adxs)],
                            )
                        )
                        index += 1
    return setups


class ReportRow:
    """One row of a DSP performance report: a won impression.

    It holds what the advertiser's report gives per impression -- the
    campaign, the charge price, the notification channel, the time and
    the ten S-feature values -- and not the bid request, which kept
    ~1.1 KB more per impression alive.  Strings are the request's own
    objects, so a row adds only its slots and two floats.
    """

    __slots__ = (
        "campaign_id", "charge_price_cpm", "encrypted_channel", "timestamp",
        "context", "device_type", "city", "time_of_day", "day_of_week",
        "slot_size", "publisher_iab", "adx", "os", "publisher",
    )

    def __init__(
        self,
        campaign_id: str,
        charge_price_cpm: float,
        encrypted_channel: bool,
        request: BidRequest,
    ):
        self.campaign_id = campaign_id
        self.charge_price_cpm = charge_price_cpm
        self.encrypted_channel = encrypted_channel
        self.timestamp = request.timestamp
        self.context = request.context
        self.device_type = request.device.device_type
        self.city = request.geo.city
        self.time_of_day = hour_of(request.timestamp) // 4
        self.day_of_week = day_of_week(request.timestamp)
        self.slot_size = sys.intern(request.imp.slot_size.label)
        self.publisher_iab = request.publisher_iab
        self.adx = request.adx
        self.os = request.device.os
        self.publisher = request.publisher


@dataclass(frozen=True, slots=True)
class ProbeImpression:
    """One impression the probe campaign won: its setup and report row."""

    setup_id: str
    report: ReportRow

    @property
    def charge_price_cpm(self) -> float:
        return self.report.charge_price_cpm

    @property
    def encrypted_channel(self) -> bool:
        return self.report.encrypted_channel

    def feature_row(self) -> dict[str, Hashable]:
        """The S-feature dict for model training.

        These come from the DSP's own performance report (we know our
        targeting and the delivered context), so they are ground truth
        by construction -- matching how the paper trains on campaign
        reports rather than on observer-side parses.
        """
        row = self.report
        return {
            "context": row.context,
            "device_type": row.device_type,
            "city": row.city,
            "time_of_day": row.time_of_day,
            "day_of_week": row.day_of_week,
            "slot_size": row.slot_size,
            "publisher_iab": row.publisher_iab,
            "adx": row.adx,
            "os": row.os,
            "publisher": row.publisher,
        }


class RecordingDsp(Dsp):
    """A DSP that logs every win as a performance-report row.

    ``encrypted_channel`` is the price-notification channel the DSP
    agreed with its target exchanges; every row records it.
    """

    def __init__(self, *args, encrypted_channel: bool, **kwargs):
        super().__init__(*args, **kwargs)
        self.encrypted_channel = encrypted_channel
        self.reports: list[ReportRow] = []

    def notify_win(
        self,
        campaign_id: str,
        charge_price_cpm: float,
        request: BidRequest | None = None,
    ) -> None:
        super().notify_win(campaign_id, charge_price_cpm, request=request)
        if request is not None:
            self.reports.append(
                ReportRow(
                    campaign_id, charge_price_cpm, self.encrypted_channel, request
                )
            )


@dataclass
class CampaignResult:
    """Everything one probe campaign produced."""

    name: str
    period: Period
    adxs: tuple[str, ...]
    setups: list[ProbeSetup]
    impressions: list[ProbeImpression] = field(default_factory=list)

    def prices(self) -> np.ndarray:
        return np.array([imp.charge_price_cpm for imp in self.impressions])

    def feature_rows(self) -> list[dict[str, Hashable]]:
        return [imp.feature_row() for imp in self.impressions]

    def prices_by_iab(self) -> dict[str, list[float]]:
        """Charge prices grouped by publisher IAB (Figure 15)."""
        groups: dict[str, list[float]] = {}
        for imp in self.impressions:
            report = imp.report
            groups.setdefault(report.publisher_iab, []).append(
                report.charge_price_cpm
            )
        return groups

    def publishers_reached(self) -> int:
        return len({imp.report.publisher for imp in self.impressions})

    def summary(self) -> dict[str, float]:
        """Table-3 style campaign summary."""
        prices = self.prices()
        return {
            "impressions": len(self.impressions),
            "publishers": self.publishers_reached(),
            "iab_categories": len(self.prices_by_iab()),
            "period_days": self.period.days,
            "median_cpm": float(np.median(prices)) if prices.size else 0.0,
            "mean_cpm": float(prices.mean()) if prices.size else 0.0,
        }


@functools.lru_cache(maxsize=16)
def _setup_day_offsets(period: Period, weekend: bool) -> tuple[int, ...]:
    """Day offsets inside the period of the requested day type."""
    n_days = max(1, int(period.days))
    offsets = tuple(
        d
        for d in range(n_days)
        if is_weekend(period.start + d * SECONDS_PER_DAY) == weekend
    )
    # A period too short for the requested day type falls back to all days.
    return offsets or tuple(range(n_days))


@functools.lru_cache(maxsize=8)
def _daypart_hour_draw(daypart: str) -> tuple[list[int], WeightedDraw]:
    """The daypart's hours and their draw, weighted by browsing intensity."""
    if daypart == "12am-9am":
        hours = list(range(0, 9))
    elif daypart == "9am-6pm":
        hours = list(range(9, 18))
    else:
        hours = list(range(18, 24))
    weights = np.array([HOURLY_WEIGHTS[h] for h in hours])
    return hours, WeightedDraw(weights / weights.sum())


def _sample_setup_timestamp(
    setup: ProbeSetup, period: Period, rng: np.random.Generator
) -> float:
    """A timestamp inside the period matching the setup's daypart and
    day type, hour-weighted by the browsing diurnal profile."""
    day_offsets = _setup_day_offsets(period, setup.day_type == "weekend")
    day = day_offsets[int(rng.integers(0, len(day_offsets)))]
    hours, draw_hour = _daypart_hour_draw(setup.daypart)
    hour = hours[draw_hour(rng)]
    ts = (
        period.start
        + day * SECONDS_PER_DAY
        + hour * 3600
        + float(rng.uniform(0, 3600))
    )
    return min(ts, period.end - 1.0)


def _audience_member(
    setup: ProbeSetup, index: int, rng: np.random.Generator
):
    """A synthetic audience user matching the setup's city/device/OS.

    The campaign reaches far beyond the 1,594 weblog volunteers; the
    exchange routes us *matching* users, which is what this models.
    """
    from repro.trace.devices import DeviceProfile
    from repro.trace.geography import assign_ip, city_by_name
    from repro.trace.population import UserProfile, sample_interests

    city = city_by_name(setup.city)
    if setup.os == "Android":
        model = "SM-T530" if setup.device_type == "tablet" else "SM-G920F"
        version = "5.1.1"
    else:
        model = "iPad4,1" if setup.device_type == "tablet" else "iPhone7,2"
        version = "9.0.2"
    device = DeviceProfile(
        os=setup.os,
        device_type=setup.device_type,
        model=model,
        os_version=version,
    )
    return UserProfile(
        user_id=f"aud-{setup.setup_id}-{index:05d}",
        city=city,
        device=device,
        ip=assign_ip(city, rng),
        interests=sample_interests(rng),
        activity=1.0,
        app_fraction=1.0 if setup.context == "app" else 0.0,
    )


def run_probe_campaign(
    market: MarketState,
    name: str,
    period: Period,
    adxs: tuple[str, ...],
    auctions_per_setup: int,
    encrypted_channel: bool,
    seed: int,
) -> CampaignResult:
    """Execute one probe campaign against the simulated market.

    For each Table-5 setup the exchange routes ``auctions_per_setup``
    matching auction opportunities to the probe DSP (real DSP buying
    works this way: you do not wait for random traffic, the ADX serves
    you the inventory your targeting asks for).  Every auction is still
    contested by the full resident DSP population, so the charge price
    the probe pays is the competing market's second price -- the
    quantity the campaign exists to sample.

    ``encrypted_channel`` pins the probe's notification channel with the
    target exchanges (A1's exchanges encrypt, A2's MoPub is cleartext);
    ground-truth prices come from the DSP performance reports either
    way.
    """
    from repro.rtb.openrtb import BidRequest, Device, Geo, Impression, UserInfo
    from repro.rtb.adslots import AdSlotSize
    from repro.rtb.cookiesync import synced_uid
    from repro.trace.browsing import PublisherChooser
    rngs = RngRegistry(derive_seed(seed, f"campaign:{name}"))
    rng = rngs.get("traffic")
    setups = build_probe_setups(adxs)
    campaigns = {
        s.setup_id: Campaign(
            campaign_id=f"{name}-{s.setup_id}",
            advertiser=PROBE_ADVERTISER,
            targeting=s.targeting(),
            max_bid_cpm=PROBE_MAX_BID_CPM,
        )
        for s in setups
    }
    probe = RecordingDsp(
        PROBE_DSP_NAME,
        FeatureBidEngine(
            value_model=market.value_model,
            noise_sigma=0.20,
            aggressiveness=PROBE_AGGRESSIVENESS,
        ),
        rngs.get("probe-dsp"),
        campaigns=list(campaigns.values()),
        encrypted_channel=encrypted_channel,
    )
    for adx in market.exchanges:
        market.policy.set_adoption(
            adx,
            PROBE_DSP_NAME,
            epoch(2014, 1, 1) if (encrypted_channel and adx in adxs) else None,
        )

    chooser = PublisherChooser(market.universe)
    dsps = market.dsps + [probe]
    sold = 0
    with obs.span("pme.campaign_auctions", campaign=name) as auctions_span:
        auction_seq = 0
        for setup in setups:
            exchange = market.exchanges[setup.adx]
            for k in range(auctions_per_setup):
                user = _audience_member(setup, k, rng)
                ts = _sample_setup_timestamp(setup, period, rng)
                is_app = setup.context == "app"
                publisher = chooser.choose(rng, user, is_app)
                auction_seq += 1
                auction_id = f"{name}-{auction_seq:08d}"
                request = BidRequest(
                    auction_id=auction_id,
                    timestamp=ts,
                    imp=Impression(
                        impression_id=f"{auction_id}-i0",
                        slot_size=AdSlotSize.parse(setup.slot_size),
                    ),
                    publisher=publisher.domain,
                    publisher_iab=publisher.iab_category,
                    device=Device(
                        os=user.device.os,
                        device_type=user.device.device_type,
                        user_agent=user.device.user_agent(is_app),
                        ip=user.ip,
                    ),
                    geo=Geo(country="ES", city=user.city.name),
                    user=UserInfo(exchange_uid=synced_uid(setup.adx, user.user_id)),
                    is_app=is_app,
                    adx=setup.adx,
                )
                if exchange.run_auction(request, dsps, market.policy) is not None:
                    sold += 1
        auctions_span.set(
            auctions=auction_seq, sold=sold, impressions=len(probe.reports)
        )

    campaign_to_setup = {f"{name}-{s.setup_id}": s.setup_id for s in setups}
    impressions = [
        ProbeImpression(campaign_to_setup[row.campaign_id], row)
        for row in probe.reports
        if row.campaign_id in campaign_to_setup
    ]
    return CampaignResult(
        name=name,
        period=period,
        adxs=adxs,
        setups=setups,
        impressions=impressions,
    )


#: Paper-guided per-setup impression target (section 5.2: >=185
#: impressions bound the within-campaign error at 0.1 CPM).
DEFAULT_AUCTIONS_PER_SETUP = 185


def run_campaign_a1(
    market: MarketState,
    seed: int,
    auctions_per_setup: int = DEFAULT_AUCTIONS_PER_SETUP,
) -> CampaignResult:
    """Campaign A1: the four encrypting exchanges, May 2016 (13 days)."""
    return run_probe_campaign(
        market,
        name="A1",
        period=CAMPAIGN_A1_PERIOD,
        adxs=tuple(ENCRYPTING_ADXS),
        auctions_per_setup=auctions_per_setup,
        encrypted_channel=True,
        seed=seed,
    )


def run_campaign_a2(
    market: MarketState,
    seed: int,
    auctions_per_setup: int = DEFAULT_AUCTIONS_PER_SETUP,
) -> CampaignResult:
    """Campaign A2: same setups, MoPub only (cleartext), June 2016."""
    return run_probe_campaign(
        market,
        name="A2",
        period=CAMPAIGN_A2_PERIOD,
        adxs=("MoPub",),
        auctions_per_setup=auctions_per_setup,
        encrypted_channel=False,
        seed=seed,
    )
