"""RTB ecosystem substrate.

Implements the players of the paper's Figure 1 -- publishers, ad
exchanges, DSPs, DMPs -- plus the mechanics they interact through:
OpenRTB-style bid requests, second-price auctions, win-notification
URLs with cleartext or 28-byte-encrypted charge prices, cookie
synchronisation, campaigns with Table-5 targeting, and the IAB/ad-slot
vocabularies.
"""

from repro.rtb.adslots import (
    CAMPAIGN_PHONE_SIZES,
    CAMPAIGN_TABLET_SIZES,
    TURN_SIZES,
    AdSlotSize,
    sort_by_area,
)
from repro.rtb.auction import (
    AuctionError,
    AuctionOutcome,
    run_first_price_auction,
    run_second_price_auction,
)
from repro.rtb.bidding import (
    Dsp,
    FeatureBidEngine,
    RetargetingEngine,
    ValueModel,
)
from repro.rtb.campaign import (
    CAMPAIGN_DAYPARTS,
    Campaign,
    TargetingSpec,
    campaign_daypart,
)
from repro.rtb.cookiesync import CookieSyncRegistry, synced_uid
from repro.rtb.entities import (
    ENCRYPTING_ADXS,
    MARKET_SHARES,
    Advertiser,
    Dmp,
    Publisher,
)
from repro.rtb.exchange import AdExchange, AuctionRecord, PairEncryptionPolicy
from repro.rtb.iab import (
    DATASET_CATEGORIES,
    FIGURE11_CATEGORIES,
    FIGURE15_CATEGORIES,
    IAB_CATEGORIES,
    InterestProfile,
    is_valid_category,
)
from repro.rtb.nurl import (
    CHARGE_PRICE_PARAMS,
    FORMATS,
    HOST_TO_ADX,
    NUrlFormat,
    ParsedNotification,
    WinNotification,
    build_nurl,
    parse_nurl,
)
from repro.rtb.openrtb import (
    Bid,
    BidRequest,
    BidResponse,
    Device,
    Geo,
    Impression,
    UserInfo,
)
from repro.rtb.pricecrypto import (
    CIPHERTEXT_SIZE,
    PriceCryptoError,
    PriceKeys,
    decrypt_price,
    encrypt_price,
    looks_like_encrypted_price,
)

__all__ = [
    "AdSlotSize",
    "TURN_SIZES",
    "CAMPAIGN_PHONE_SIZES",
    "CAMPAIGN_TABLET_SIZES",
    "sort_by_area",
    "AuctionError",
    "AuctionOutcome",
    "run_second_price_auction",
    "run_first_price_auction",
    "Dsp",
    "FeatureBidEngine",
    "RetargetingEngine",
    "ValueModel",
    "Campaign",
    "TargetingSpec",
    "CAMPAIGN_DAYPARTS",
    "campaign_daypart",
    "CookieSyncRegistry",
    "synced_uid",
    "MARKET_SHARES",
    "ENCRYPTING_ADXS",
    "Publisher",
    "Advertiser",
    "Dmp",
    "AdExchange",
    "AuctionRecord",
    "PairEncryptionPolicy",
    "IAB_CATEGORIES",
    "DATASET_CATEGORIES",
    "FIGURE11_CATEGORIES",
    "FIGURE15_CATEGORIES",
    "InterestProfile",
    "is_valid_category",
    "FORMATS",
    "HOST_TO_ADX",
    "CHARGE_PRICE_PARAMS",
    "NUrlFormat",
    "WinNotification",
    "ParsedNotification",
    "build_nurl",
    "parse_nurl",
    "Bid",
    "BidRequest",
    "BidResponse",
    "Device",
    "Geo",
    "Impression",
    "UserInfo",
    "PriceKeys",
    "PriceCryptoError",
    "encrypt_price",
    "decrypt_price",
    "looks_like_encrypted_price",
    "CIPHERTEXT_SIZE",
]
