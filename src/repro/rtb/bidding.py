"""DSP bid decision engines.

A DSP's decision engine answers the question the paper poses in section
2.1: "How much is it worth to bid for an ad slot for this user, if
any?".  Our engines decompose a bid into

    bid = base_value(request features) * dsp_noise * campaign aggressiveness

where ``base_value`` is a shared, feature-multiplicative valuation of
the impression (configured by :mod:`repro.trace.pricing` to encode the
paper's observed price structure) and the noise term models the spread
of independent bidder beliefs.  Second-price clearing over several such
bidders yields charge prices that inherit the feature structure --
which is precisely why the paper's Random Forest can learn them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from repro.rtb.campaign import Campaign
from repro.rtb.openrtb import Bid, BidRequest, BidResponse

#: A valuation function: request -> fair CPM value of the impression.
ValueModel = Callable[[BidRequest], float]


class BidEngine(Protocol):
    """Strategy interface: price a campaign's bid for one request."""

    def price_bid(self, request: BidRequest, campaign: Campaign,
                  rng: np.random.Generator) -> float | None:
        """CPM bid, or None to no-bid."""


@dataclass
class FeatureBidEngine:
    """Value-based bidding with lognormal belief noise.

    ``noise_sigma`` is the std of the bidder's log-valuation error;
    ``aggressiveness`` scales bids up/down (retargeting-style campaigns
    would use > 1).  ``participation`` is the probability the DSP bids
    at all on an eligible request (models bid throttling / pacing).
    """

    value_model: ValueModel
    noise_sigma: float = 0.35
    aggressiveness: float = 1.0
    participation: float = 1.0

    def __post_init__(self) -> None:
        if self.noise_sigma < 0:
            raise ValueError(f"negative noise_sigma {self.noise_sigma}")
        if self.aggressiveness <= 0:
            raise ValueError(
                f"aggressiveness must be positive, got {self.aggressiveness}"
            )
        if not 0.0 <= self.participation <= 1.0:
            raise ValueError(f"participation must be in [0,1], got {self.participation}")

    def price_bid(self, request: BidRequest, campaign: Campaign,
                  rng: np.random.Generator) -> float | None:
        if self.participation < 1.0 and rng.random() > self.participation:
            return None
        value = self.value_model(request)
        if value <= 0:
            return None
        noise = float(np.exp(rng.normal(0.0, self.noise_sigma))) if self.noise_sigma else 1.0
        bid = value * noise * self.aggressiveness
        # The bid cap protects the budget (paper section 5.3) -- bids are
        # clipped, not dropped, so capped campaigns still compete.
        return min(bid, campaign.max_bid_cpm)


@dataclass
class RetargetingEngine:
    """Audience-retargeting bidding (the paper's deferred future work).

    The paper's probe campaigns deliberately avoided retargeting
    ("studying the effects of retargeting is beyond the scope of this
    paper ... we plan to investigate [it] in a separate study"), while
    hypothesising that aggressive retargeting is one driver of the
    encrypted-price premium.  This engine implements the mechanism so
    the ablation benches can study it: the DSP bids only on users in
    its retargeting audience (recognised through cookie-synced ids) and
    values them at a multiple of the common valuation.

    ``audience_uids`` live in the DSP's own id space
    (:func:`repro.rtb.cookiesync.synced_uid` of ``dsp_name``); a user
    is reachable only when a cookie sync has put the DSP's uid into the
    bid request -- exactly the dependency real retargeting has on sync.
    """

    dsp_name: str
    value_model: ValueModel
    audience_uids: frozenset[str]
    boost: float = 2.0
    noise_sigma: float = 0.25

    def __post_init__(self) -> None:
        if self.boost <= 0:
            raise ValueError("boost must be positive")
        if self.noise_sigma < 0:
            raise ValueError("negative noise_sigma")

    def in_audience(self, request: BidRequest) -> bool:
        uid = request.user.buyer_uids.get(self.dsp_name)
        return uid is not None and uid in self.audience_uids

    def price_bid(self, request: BidRequest, campaign: Campaign,
                  rng: np.random.Generator) -> float | None:
        if not self.in_audience(request):
            return None
        value = self.value_model(request)
        if value <= 0:
            return None
        noise = float(np.exp(rng.normal(0.0, self.noise_sigma))) if self.noise_sigma else 1.0
        return min(value * noise * self.boost, campaign.max_bid_cpm)


class CampaignIndex:
    """Book-order candidate campaigns for a request, by its single-valued
    attributes: ADX, city, slot size and publisher IAB.

    For each of those attributes a posting map sends a value to the
    bitmask of campaigns (bit ``i`` = book position ``i``) whose
    targeting allows it, an unconstrained (``None``) campaign allowing
    every value.  A request's candidates are the AND of its four masks,
    visited in ascending bit order, i.e. in book order.  The index only
    narrows the scan: a campaign it drops fails ``TargetingSpec.matches``
    on one of these four fields, so never bids and never draws a random
    number; every candidate still goes through ``Campaign.eligible_for``
    for its budget and the rest of its targeting.

    The index reflects each campaign's targeting when it was built.
    """

    __slots__ = ("_book", "_adx", "_city", "_slot", "_iab")

    def __init__(self, campaigns: list[Campaign]):
        self._book = tuple(campaigns)
        self._adx = self._postings(campaigns, "adxs")
        self._city = self._postings(campaigns, "cities")
        self._slot = self._postings(campaigns, "slot_sizes")
        self._iab = self._postings(campaigns, "iab_categories")

    @staticmethod
    def _postings(
        campaigns: list[Campaign], field_name: str
    ) -> tuple[dict[str, int], int]:
        """(value -> mask of campaigns allowing it, mask of wildcards)."""
        wildcard = 0
        postings: dict[str, int] = {}
        for position, campaign in enumerate(campaigns):
            allowed = getattr(campaign.targeting, field_name)
            if allowed is None:
                wildcard |= 1 << position
            else:
                for value in allowed:
                    postings[value] = postings.get(value, 0) | 1 << position
        return {value: mask | wildcard for value, mask in postings.items()}, wildcard

    def candidates(self, request: BidRequest) -> list[Campaign]:
        """Campaigns whose indexed targeting admits the request, in book order."""
        adx, adx_any = self._adx
        city, city_any = self._city
        slot, slot_any = self._slot
        iab, iab_any = self._iab
        mask = (
            adx.get(request.adx, adx_any)
            & city.get(request.geo.city, city_any)
            & slot.get(request.imp.slot_size.label, slot_any)
            & iab.get(request.publisher_iab, iab_any)
        )
        book = self._book
        out = []
        while mask:
            lowest = mask & -mask
            out.append(book[lowest.bit_length() - 1])
            mask ^= lowest
        return out


class Dsp:
    """A demand-side platform: a bidder holding campaigns and an engine.

    The DSP receives bid requests from exchanges, finds eligible
    campaigns, prices a bid for the best one and responds.  Wins are
    reported back via :meth:`notify_win` so budgets stay accounted.
    Campaign ids are unique within a DSP's book.
    """

    def __init__(
        self,
        name: str,
        engine: BidEngine,
        rng: np.random.Generator,
        campaigns: list[Campaign] | None = None,
    ):
        if not name:
            raise ValueError("DSP name must be non-empty")
        self.name = name
        self.engine = engine
        self.rng = rng
        self._book: list[Campaign] = []
        self._by_id: dict[str, Campaign] = {}
        self._index: CampaignIndex | None = None
        self.wins = 0
        self.total_spend_usd = 0.0
        for campaign in campaigns or ():
            self.add_campaign(campaign)

    @property
    def campaigns(self) -> tuple[Campaign, ...]:
        """The campaign book, in the order campaigns were added."""
        return tuple(self._book)

    def add_campaign(self, campaign: Campaign) -> None:
        if campaign.campaign_id in self._by_id:
            raise ValueError(
                f"DSP {self.name} already has a campaign {campaign.campaign_id!r}"
            )
        self._book.append(campaign)
        self._by_id[campaign.campaign_id] = campaign
        self._index = None

    def respond(self, request: BidRequest) -> BidResponse:
        """Answer a bid request with at most one bid (the best campaign)."""
        if self._index is None:
            self._index = CampaignIndex(self._book)
        best_bid: Bid | None = None
        for campaign in self._index.candidates(request):
            if not campaign.eligible_for(request):
                continue
            price = self.engine.price_bid(request, campaign, self.rng)
            if price is None or price <= 0:
                continue
            if best_bid is None or price > best_bid.price_cpm:
                best_bid = Bid(
                    dsp=self.name,
                    advertiser=campaign.advertiser,
                    campaign_id=campaign.campaign_id,
                    price_cpm=price,
                    creative_domain=f"ads.{campaign.advertiser.lower()}.com",
                )
        bids = (best_bid,) if best_bid is not None else ()
        return BidResponse(auction_id=request.auction_id, dsp=self.name, bids=bids)

    def notify_win(
        self,
        campaign_id: str,
        charge_price_cpm: float,
        request: BidRequest | None = None,
    ) -> None:
        """Book a win against the campaign's budget.

        ``request`` carries the auction context; the base DSP ignores it,
        but recording DSPs (probe campaigns) log it as the per-impression
        performance report advertisers receive.
        """
        campaign = self._by_id.get(campaign_id)
        if campaign is None:
            raise KeyError(f"DSP {self.name} has no campaign {campaign_id!r}")
        campaign.record_win(charge_price_cpm)
        self.wins += 1
        self.total_spend_usd += charge_price_cpm / 1000.0
