"""Minimal OpenRTB-style request/response objects.

A compact subset of the OpenRTB 2.x object model (the paper cites the
MoPub/OpenX/PulsePoint OpenRTB integration guides): enough structure
for an ADX to describe an impression opportunity to DSPs and for DSPs
to answer with bids.  Field names follow the spec (``tmax``, ``imp``,
``bidfloor``, ...) so readers familiar with OpenRTB can map them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rtb.adslots import AdSlotSize
from repro.rtb.iab import InterestProfile


@dataclass(frozen=True)
class Device:
    """Device object: what the exchange knows about the user's hardware."""

    os: str                      # "Android" | "iOS" | "Windows Mobile" | ...
    device_type: str             # "smartphone" | "tablet" | "pc"
    user_agent: str = ""
    ip: str = ""


@dataclass(frozen=True)
class Geo:
    """Geo object resolved from the device IP."""

    country: str = ""
    city: str = ""


@dataclass(frozen=True)
class UserInfo:
    """User object: the exchange-side view of the audience member.

    ``buyer_uid`` is the cookie-synced identifier a DSP can use to look
    up its own profile of this user (see :mod:`repro.rtb.cookiesync`).
    """

    exchange_uid: str
    buyer_uids: dict[str, str] = field(default_factory=dict)
    interests: InterestProfile = field(default_factory=lambda: InterestProfile(()))


@dataclass(frozen=True)
class Impression:
    """One auctioned ad slot within a bid request."""

    impression_id: str
    slot_size: AdSlotSize
    bidfloor_cpm: float = 0.0
    interstitial: bool = False

    def __post_init__(self) -> None:
        if self.bidfloor_cpm < 0:
            raise ValueError(f"negative bid floor {self.bidfloor_cpm}")


@dataclass(frozen=True)
class BidRequest:
    """The auction call an ADX broadcasts to participating DSPs."""

    auction_id: str
    timestamp: float
    imp: Impression
    publisher: str
    publisher_iab: str
    device: Device
    geo: Geo
    user: UserInfo
    is_app: bool
    adx: str
    tmax_ms: int = 100           # the 100 ms budget of step 6 in Figure 1

    @property
    def context(self) -> str:
        """``'app'`` or ``'web'`` -- the paper's interaction-type feature."""
        return "app" if self.is_app else "web"


@dataclass(frozen=True)
class Bid:
    """A DSP's answer for one impression."""

    dsp: str
    advertiser: str
    campaign_id: str
    price_cpm: float
    creative_domain: str = ""

    def __post_init__(self) -> None:
        if self.price_cpm < 0:
            raise ValueError(f"negative bid {self.price_cpm}")


@dataclass(frozen=True)
class BidResponse:
    """A DSP's full response to a bid request (possibly empty = no-bid)."""

    auction_id: str
    dsp: str
    bids: tuple[Bid, ...] = ()
