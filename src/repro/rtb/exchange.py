"""Ad exchanges: auction hosting and the price-notification channel.

The ADX runs the second-price auction, notifies the winning DSP through
the browser-borne nURL (the dominant option per paper section 2.2), and
-- per its policy with that DSP -- sends the charge price in cleartext
or encrypted with the exchange's 28-byte scheme (section 2.3).

Encryption adoption is modelled per ADX-DSP *pair* with an adoption
date, reproducing the paper's Figure 2 finding that the fraction of
encrypted pairs rises steadily through 2015.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.rtb.auction import (
    AuctionOutcome,
    run_first_price_auction,
    run_second_price_auction,
)
from repro.rtb.bidding import Dsp
from repro.rtb.nurl import FORMATS, WinNotification, build_nurl
from repro.rtb.openrtb import Bid, BidRequest
from repro.rtb.pricecrypto import PriceKeys, encrypt_price


#: Clearing function per auction mechanism.
_CLEARING = {
    "second_price": run_second_price_auction,
    "first_price": run_first_price_auction,
}


def _clearing(mechanism: str):
    """The clearing function of ``mechanism``; unknown names raise."""
    try:
        return _CLEARING[mechanism]
    except KeyError:
        raise ValueError(f"unknown auction mechanism {mechanism!r}") from None


@dataclass
class PairEncryptionPolicy:
    """Per (ADX, DSP) pair: when (if ever) the pair switched to
    encrypted price notifications.

    ``adoption_ts`` of ``None`` means the pair always sends cleartext.
    """

    adoption: dict[tuple[str, str], float | None] = field(default_factory=dict)

    def set_adoption(self, adx: str, dsp: str, ts: float | None) -> None:
        self.adoption[(adx, dsp)] = ts

    def is_encrypted(self, adx: str, dsp: str, ts: float) -> bool:
        """Does this pair encrypt at time ``ts``?"""
        adoption_ts = self.adoption.get((adx, dsp))
        return adoption_ts is not None and ts >= adoption_ts

    def pairs(self) -> list[tuple[str, str]]:
        return list(self.adoption)

    def encrypted_fraction(self, ts: float) -> float:
        """Fraction of known pairs encrypting at ``ts`` (Figure 2 series)."""
        if not self.adoption:
            return 0.0
        encrypted = sum(
            1 for (adx, dsp) in self.adoption if self.is_encrypted(adx, dsp, ts)
        )
        return encrypted / len(self.adoption)


@dataclass(frozen=True)
class AuctionRecord:
    """Everything one resolved auction produced.

    The simulator keeps the ground-truth charge price even when the
    wire carries it encrypted; observer-side code must only ever look
    at ``nurl``.
    """

    request: BidRequest
    outcome: AuctionOutcome
    notification: WinNotification
    nurl: str
    true_charge_price_cpm: float

    @property
    def is_encrypted(self) -> bool:
        return self.notification.is_encrypted


class AdExchange:
    """A digital marketplace hosting RTB auctions (paper section 2.1)."""

    def __init__(
        self,
        name: str,
        rng: np.random.Generator,
        floor_cpm: float = 0.01,
        mechanism: str = "second_price",
    ):
        if name not in FORMATS:
            raise ValueError(f"no nURL format registered for exchange {name!r}")
        _clearing(mechanism)
        self.name = name
        self.rng = rng
        self.keys = PriceKeys.derive(f"adx:{name}")
        self.floor_cpm = floor_cpm
        self.mechanism = mechanism
        self.auctions_run = 0
        self.revenue_usd = 0.0

    def run_auction(
        self,
        request: BidRequest,
        dsps: list[Dsp],
        policy: PairEncryptionPolicy,
    ) -> AuctionRecord | None:
        """Broadcast the request, clear the auction, emit the nURL.

        Returns ``None`` when no DSP bids above the floor (unsold
        inventory, which real SSPs would backfill outside RTB).
        """
        self.auctions_run += 1
        bids: list[Bid] = []
        for dsp in dsps:
            response = dsp.respond(request)
            bids.extend(response.bids)

        outcome = _clearing(self.mechanism)(bids, floor_cpm=self.floor_cpm)
        if outcome is None:
            return None

        winner = outcome.winner
        charge = outcome.charge_price_cpm
        for dsp in dsps:
            if dsp.name == winner.dsp:
                dsp.notify_win(winner.campaign_id, charge, request=request)
                break

        encrypted = policy.is_encrypted(self.name, winner.dsp, request.timestamp)
        impression_id = f"imp-{self.name[:3].lower()}-{self.auctions_run:08d}"
        if encrypted:
            iv = self.rng.bytes(16)
            notification = WinNotification(
                adx=self.name,
                dsp=winner.dsp,
                charge_price_cpm=None,
                encrypted_price=encrypt_price(charge, self.keys, iv),
                impression_id=impression_id,
                auction_id=request.auction_id,
                ad_domain=winner.creative_domain,
                slot_size=request.imp.slot_size.label,
                publisher=request.publisher,
                country=request.geo.country,
                bid_price_cpm=winner.price_cpm,
                campaign_id=winner.campaign_id,
            )
        else:
            notification = WinNotification(
                adx=self.name,
                dsp=winner.dsp,
                charge_price_cpm=charge,
                encrypted_price=None,
                impression_id=impression_id,
                auction_id=request.auction_id,
                ad_domain=winner.creative_domain,
                slot_size=request.imp.slot_size.label,
                publisher=request.publisher,
                country=request.geo.country,
                bid_price_cpm=winner.price_cpm,
                campaign_id=winner.campaign_id,
            )

        self.revenue_usd += charge / 1000.0
        return AuctionRecord(
            request=request,
            outcome=outcome,
            notification=notification,
            nurl=build_nurl(notification),
            true_charge_price_cpm=charge,
        )
