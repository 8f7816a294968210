"""Slow reference implementations of the RTB hot path (test oracles).

The production code in ``repro.rtb`` narrows and precomputes; these are
the straightforward versions it must agree with bit for bit:

* :func:`reference_respond` -- ``Dsp.respond`` as a scan of the whole
  campaign book, every campaign through ``Campaign.eligible_for``;
* :func:`reference_build_nurl` -- ``build_nurl`` as a parameter list
  rendered by ``urlencode(params, quote_via=quote)``;
* :func:`reference_parse_nurl` -- ``parse_nurl`` on urllib's
  ``urlparse`` and ``parse_qsl`` for every query.

It also holds the test doubles the RTB tests build markets from:
:class:`FixedBidEngine`, a constant bidder, and :func:`always_cleartext`,
a policy under which no pair ever encrypts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from urllib.parse import parse_qsl, quote, urlencode, urlparse

from repro.rtb.bidding import Dsp
from repro.rtb.campaign import Campaign
from repro.rtb.exchange import PairEncryptionPolicy
from repro.rtb.nurl import (
    CHARGE_PRICE_PARAMS,
    FORMATS,
    HOST_TO_ADX,
    ParsedNotification,
    WinNotification,
)
from repro.rtb.pricecrypto import looks_like_encrypted_price
from repro.rtb.openrtb import Bid, BidRequest, BidResponse


@dataclass
class FixedBidEngine:
    """Bid a constant CPM on every eligible request."""

    bid_cpm: float

    def __post_init__(self) -> None:
        if self.bid_cpm <= 0:
            raise ValueError("bid_cpm must be positive")

    def price_bid(self, request: BidRequest, campaign: Campaign,
                  rng) -> float | None:
        return min(self.bid_cpm, campaign.max_bid_cpm)


def always_cleartext(adxs: list[str], dsps: list[str]) -> PairEncryptionPolicy:
    """Every pair sends cleartext forever."""
    return PairEncryptionPolicy(
        adoption={pair: None for pair in itertools.product(adxs, dsps)}
    )


def reference_respond(dsp: Dsp, request: BidRequest) -> BidResponse:
    """The best bid over a full scan of ``dsp``'s book, in book order."""
    best_bid: Bid | None = None
    for campaign in dsp.campaigns:
        if not campaign.eligible_for(request):
            continue
        price = dsp.engine.price_bid(request, campaign, dsp.rng)
        if price is None or price <= 0:
            continue
        if best_bid is None or price > best_bid.price_cpm:
            best_bid = Bid(
                dsp=dsp.name,
                advertiser=campaign.advertiser,
                campaign_id=campaign.campaign_id,
                price_cpm=price,
                creative_domain=f"ads.{campaign.advertiser.lower()}.com",
            )
    bids = (best_bid,) if best_bid is not None else ()
    return BidResponse(auction_id=request.auction_id, dsp=dsp.name, bids=bids)


def reference_nurl_params(notification: WinNotification) -> list[tuple[str, str]]:
    """The nURL query parameters of a notification, in order."""
    fmt = FORMATS[notification.adx]
    params: list[tuple[str, str]] = list(fmt.static_params)
    if notification.is_encrypted:
        params.append((fmt.price_param, notification.encrypted_price))
    else:
        params.append((fmt.price_param, f"{notification.charge_price_cpm:.4f}"))
    params.append(("imp_id", notification.impression_id))
    params.append(("auction_id", notification.auction_id))
    params.append(("bidder_name", notification.dsp))
    if notification.ad_domain:
        params.append(("ad_domain", notification.ad_domain))
    if notification.publisher:
        params.append(("pub_name", notification.publisher))
    if notification.country:
        params.append(("country", notification.country))
    if notification.campaign_id:
        params.append(("cmp_id", notification.campaign_id))
    params.append(("currency", notification.currency))
    if fmt.include_bid_price and notification.bid_price_cpm is not None:
        params.append(("bid_price", f"{notification.bid_price_cpm:.4f}"))
    if fmt.include_size and notification.slot_size:
        width, height = notification.slot_size.split("x")
        params.append(("width", width))
        params.append(("height", height))
    elif notification.slot_size:
        params.append(("size", notification.slot_size))
    return params


def reference_build_nurl(notification: WinNotification) -> str:
    """The nURL rendered through ``urlencode``."""
    fmt = FORMATS[notification.adx]
    query = urlencode(reference_nurl_params(notification), quote_via=quote)
    return f"{fmt.base_url()}?{query}"


def reference_parse_nurl(url: str) -> ParsedNotification | None:
    """``parse_nurl`` with every query split and unquoted by urllib."""
    try:
        parsed = urlparse(url)
    except ValueError:
        return None
    adx = HOST_TO_ADX.get(parsed.netloc)
    if adx is None:
        return None
    pairs = parse_qsl(parsed.query, keep_blank_values=True)
    params = dict(pairs)
    price_value = next(
        (params[macro] for macro in CHARGE_PRICE_PARAMS if macro in params), None
    )
    if price_value is None:
        return None
    cleartext: float | None = None
    encrypted: str | None = None
    try:
        cleartext = float(price_value)
        if not math.isfinite(cleartext) or cleartext < 0:
            return None
    except (ValueError, OverflowError):
        if not looks_like_encrypted_price(price_value):
            return None
        cleartext = None
        encrypted = price_value
    return ParsedNotification(
        url=url,
        adx=adx,
        dsp=params.get("bidder_name"),
        cleartext_price_cpm=cleartext,
        encrypted_token=encrypted,
        n_params=len(pairs),
        params=params,
    )
