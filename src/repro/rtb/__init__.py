"""RTB ecosystem substrate.

Implements every player of the paper's Figure 1 -- publishers, SSPs,
ad exchanges, DSPs, DMPs -- plus the mechanics they interact through:
OpenRTB-style bid requests, second-price auctions, win-notification
URLs with cleartext or 28-byte-encrypted charge prices, cookie
synchronisation, campaigns with Table-5 targeting, and the IAB/ad-slot
vocabularies.
"""

from repro.rtb.adslots import (
    CAMPAIGN_PHONE_SIZES,
    CAMPAIGN_TABLET_SIZES,
    FIGURE12_SIZES,
    NICKNAMES,
    TURN_SIZES,
    AdSlotSize,
    catalog,
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
    FixedBidEngine,
    RetargetingEngine,
    ValueModel,
)
from repro.rtb.campaign import (
    CAMPAIGN_DAYPARTS,
    Campaign,
    TargetingSpec,
    campaign_daypart,
    clone_for_adx,
)
from repro.rtb.cookiesync import CookieSyncRegistry, synced_uid
from repro.rtb.entities import (
    DSP_NAMES,
    ENCRYPTING_ADXS,
    MARKET_SHARES,
    Advertiser,
    Dmp,
    Publisher,
    Ssp,
)
from repro.rtb.exchange import AdExchange, AuctionRecord, PairEncryptionPolicy
from repro.rtb.iab import (
    DATASET_CATEGORIES,
    FIGURE11_CATEGORIES,
    FIGURE15_CATEGORIES,
    IAB_CATEGORIES,
    InterestProfile,
    category_index,
    category_name,
    is_valid_category,
)
from repro.rtb.nurl import (
    BID_PRICE_PARAMS,
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
    "NICKNAMES",
    "FIGURE12_SIZES",
    "TURN_SIZES",
    "CAMPAIGN_PHONE_SIZES",
    "CAMPAIGN_TABLET_SIZES",
    "catalog",
    "sort_by_area",
    "AuctionError",
    "AuctionOutcome",
    "run_second_price_auction",
    "run_first_price_auction",
    "Dsp",
    "FeatureBidEngine",
    "FixedBidEngine",
    "RetargetingEngine",
    "ValueModel",
    "Campaign",
    "TargetingSpec",
    "CAMPAIGN_DAYPARTS",
    "campaign_daypart",
    "clone_for_adx",
    "CookieSyncRegistry",
    "synced_uid",
    "MARKET_SHARES",
    "ENCRYPTING_ADXS",
    "DSP_NAMES",
    "Publisher",
    "Advertiser",
    "Ssp",
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
    "category_name",
    "category_index",
    "FORMATS",
    "HOST_TO_ADX",
    "CHARGE_PRICE_PARAMS",
    "BID_PRICE_PARAMS",
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
