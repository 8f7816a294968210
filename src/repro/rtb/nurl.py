"""Winning-price notification URLs (nURLs).

After an RTB auction, the ADX piggybacks a notification URL in the ad
response; the user's browser fires it, confirming delivery to the
winning DSP and carrying the charge price -- in cleartext for some
ADX-DSP pairs, encrypted for others (paper Table 1, section 2.2).

This module is the *grammar* of those URLs: a per-exchange format
registry that can render a win notification into a URL
(exchange/simulator side) and parse a URL back into price + metadata
(observer side).  The observer-side parser deliberately uses only
information an external auditor has: known notification domains, known
price-parameter macros, and the 28-byte shape of encrypted blobs.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from typing import Mapping
from urllib.parse import parse_qsl, quote, urlsplit

from repro.rtb.pricecrypto import looks_like_encrypted_price

#: Query parameter names known to carry *charge* prices (from manual
#: inspection + published RTB API macros, per paper section 4.1).
CHARGE_PRICE_PARAMS: tuple[str, ...] = (
    "charge_price", "price", "wp", "win_price", "mcpm", "rtbwinprice",
    "cp", "auction_price", "charge",
)

@dataclass(frozen=True)
class NUrlFormat:
    """How one exchange shapes its win notifications."""

    adx: str
    host: str
    path: str
    price_param: str
    #: Extra static query parameters always present (e.g. ``exch=ruc``).
    static_params: tuple[tuple[str, str], ...] = ()
    #: Include a redundant bid_price parameter (some exchanges do; the
    #: analyzer must ignore it).
    include_bid_price: bool = False
    #: Include ad-slot dimensions as ``width``/``height`` params.
    include_size: bool = False

    def base_url(self) -> str:
        return f"https://{self.host}{self.path}"

    @functools.cached_property
    def url_prefix(self) -> str:
        """The static head of every nURL: base URL, static parameters and
        the price parameter's key, ready for the price value."""
        static = "".join(f"{_quote(k)}={_quote(v)}&" for k, v in self.static_params)
        return f"{self.base_url()}?{static}{_quote(self.price_param)}="


#: Format registry for the simulated exchanges.  The three exemplars of
#: the paper's Table 1 (MoPub cleartext, Mathtag/Rubicon encrypted,
#: myThings/DoubleClick encrypted) anchor the shapes; remaining
#: exchanges get plausible variants so the detector cannot cheat by
#: assuming one format.
FORMATS: dict[str, NUrlFormat] = {
    "MoPub": NUrlFormat(
        adx="MoPub",
        host="cpp.imp.mpx.mopub.com",
        path="/imp",
        price_param="charge_price",
        include_bid_price=True,
    ),
    "Adnxs": NUrlFormat(
        adx="Adnxs",
        host="secure.adnxs.com",
        path="/winnotify",
        price_param="cp",
    ),
    "DoubleClick": NUrlFormat(
        adx="DoubleClick",
        host="ad.doubleclick.net",
        path="/ddm/winnotice",
        price_param="wp",
    ),
    "OpenX": NUrlFormat(
        adx="OpenX",
        host="ox-d.openx.net",
        path="/w/1.0/win",
        price_param="price",
    ),
    "Rubicon": NUrlFormat(
        adx="Rubicon",
        host="tags.mathtag.com",
        path="/notify/js",
        price_param="price",
        static_params=(("exch", "ruc"),),
    ),
    "PulsePoint": NUrlFormat(
        adx="PulsePoint",
        host="bid.contextweb.com",
        path="/rtb/win",
        price_param="win_price",
    ),
    "Turn": NUrlFormat(
        adx="Turn",
        host="ad.turn.com",
        path="/server/ads.js",
        price_param="mcpm",
        include_size=True,
    ),
    "MediaMath": NUrlFormat(
        adx="MediaMath",
        host="pixel.mathtag.com",
        path="/win/img",
        price_param="auction_price",
    ),
    "Smaato": NUrlFormat(
        adx="Smaato",
        host="soma.smaato.net",
        path="/oapi/win",
        price_param="price",
    ),
    "Inneractive": NUrlFormat(
        adx="Inneractive",
        host="wv.inner-active.mobi",
        path="/simpleM2M/winNotice",
        price_param="wp",
    ),
    "Criteo": NUrlFormat(
        adx="Criteo",
        host="cas.criteo.com",
        path="/delivery/win.php",
        price_param="charge",
    ),
    "AdColony": NUrlFormat(
        adx="AdColony",
        host="events.adcolony.com",
        path="/win",
        price_param="price",
    ),
    "Millennial": NUrlFormat(
        adx="Millennial",
        host="ads.mp.mydas.mobi",
        path="/winNotify",
        price_param="wp",
    ),
    "Nexage": NUrlFormat(
        adx="Nexage",
        host="bid.nexage.com",
        path="/win",
        price_param="win_price",
        include_size=True,
    ),
    "Amobee": NUrlFormat(
        adx="Amobee",
        host="rtb.amobee.com",
        path="/notify",
        price_param="price",
    ),
    "StrikeAd": NUrlFormat(
        adx="StrikeAd",
        host="bid.strikead.com",
        path="/rtb/win",
        price_param="cp",
    ),
    "Airpush": NUrlFormat(
        adx="Airpush",
        host="api.airpush.com",
        path="/winnotice",
        price_param="wp",
    ),
}

#: Observer-side knowledge: notification host -> exchange name.
HOST_TO_ADX: dict[str, str] = {fmt.host: name for name, fmt in FORMATS.items()}


@dataclass(frozen=True)
class WinNotification:
    """The information an exchange embeds into one nURL."""

    adx: str
    dsp: str
    charge_price_cpm: float | None
    encrypted_price: str | None
    impression_id: str
    auction_id: str
    ad_domain: str = ""
    slot_size: str = ""
    publisher: str = ""
    currency: str = "USD"
    bid_price_cpm: float | None = None
    country: str = ""
    campaign_id: str = ""

    def __post_init__(self) -> None:
        if (self.charge_price_cpm is None) == (self.encrypted_price is None):
            raise ValueError(
                "exactly one of charge_price_cpm / encrypted_price must be set"
            )

    @property
    def is_encrypted(self) -> bool:
        return self.encrypted_price is not None


#: Exactly the characters ``quote(..., safe="")`` leaves unescaped.
_UNRESERVED = re.compile(r"[A-Za-z0-9_.~-]*")


def _quote(value: str) -> str:
    """``quote(value, safe="")``, returning plain values untouched."""
    if _UNRESERVED.fullmatch(value):
        return value
    return quote(value, safe="")


def build_nurl(notification: WinNotification) -> str:
    """Render a win notification into its exchange's URL format.

    The query is byte-identical to ``urlencode(params, quote_via=quote)``
    over the parameters in order; the exchange's static head is encoded
    once (:attr:`NUrlFormat.url_prefix`) and only the dynamic values are
    quoted here.  Prices rendered with ``:.4f`` never need escaping.
    """
    fmt = FORMATS.get(notification.adx)
    if fmt is None:
        raise ValueError(f"unknown exchange {notification.adx!r}")

    n = notification
    if n.encrypted_price is not None:
        price = _quote(n.encrypted_price)
    else:
        price = f"{n.charge_price_cpm:.4f}"
    parts = [
        fmt.url_prefix, price,
        "&imp_id=", _quote(n.impression_id),
        "&auction_id=", _quote(n.auction_id),
        "&bidder_name=", _quote(n.dsp),
    ]
    if n.ad_domain:
        parts += ("&ad_domain=", _quote(n.ad_domain))
    if n.publisher:
        parts += ("&pub_name=", _quote(n.publisher))
    if n.country:
        parts += ("&country=", _quote(n.country))
    if n.campaign_id:
        parts += ("&cmp_id=", _quote(n.campaign_id))
    parts += ("&currency=", _quote(n.currency))
    if fmt.include_bid_price and n.bid_price_cpm is not None:
        parts += ("&bid_price=", f"{n.bid_price_cpm:.4f}")
    if fmt.include_size and n.slot_size:
        width, height = n.slot_size.split("x")
        parts += ("&width=", _quote(width), "&height=", _quote(height))
    elif n.slot_size:
        parts += ("&size=", _quote(n.slot_size))
    return "".join(parts)


@dataclass(frozen=True)
class ParsedNotification:
    """What an external observer recovers from one nURL."""

    url: str
    adx: str
    dsp: str | None
    cleartext_price_cpm: float | None
    encrypted_token: str | None
    #: Query fields, repeated names included (a Table-4 ad feature).
    n_params: int
    params: Mapping[str, str] = field(default_factory=dict)

    @property
    def is_encrypted(self) -> bool:
        return self.encrypted_token is not None

    @property
    def campaign_id(self) -> str | None:
        """Campaign identifier when the exchange carries one."""
        return self.params.get("cmp_id")

    @property
    def slot_size(self) -> str | None:
        """Slot label when the exchange carries dimensions."""
        if "size" in self.params:
            return self.params["size"]
        if "width" in self.params and "height" in self.params:
            return f"{self.params['width']}x{self.params['height']}"
        return None


def split_query(query: str) -> list[tuple[str, str]]:
    """``parse_qsl(query, keep_blank_values=True)``, without urllib when
    nothing needs unescaping.

    With no ``%`` and no ``+`` in the query, unquoting is the identity,
    so splitting on ``&``, skipping empty fields and cutting each at its
    first ``=`` gives the same pairs; any other query goes to
    ``parse_qsl``.  The simulator's nURLs hold neither character.
    """
    if "%" in query or "+" in query:
        return parse_qsl(query, keep_blank_values=True)
    return [item.partition("=")[::2] for item in query.split("&") if item]


def parse_nurl(url: str) -> ParsedNotification | None:
    """Observer-side nURL parser.

    Returns ``None`` when the URL is not a recognised win notification
    (unknown host, or no known charge-price macro among its
    parameters).  Bid-price parameters are explicitly ignored.
    """
    try:
        parsed = urlsplit(url)
    except ValueError:
        return None
    adx = HOST_TO_ADX.get(parsed.netloc)
    if adx is None:
        return None
    pairs = split_query(parsed.query)
    params = dict(pairs)

    price_value: str | None = None
    for macro in CHARGE_PRICE_PARAMS:
        if macro in params:
            price_value = params[macro]
            break
    if price_value is None:
        return None

    cleartext: float | None = None
    encrypted: str | None = None
    try:
        cleartext = float(price_value)
        # Hostile or broken notifications can smuggle NaN/inf literals
        # through float(); a price must be a finite non-negative number.
        if not math.isfinite(cleartext) or cleartext < 0:
            return None
    except (ValueError, OverflowError):
        if looks_like_encrypted_price(price_value):
            cleartext = None
            encrypted = price_value
        else:
            return None

    return ParsedNotification(
        url=url,
        adx=adx,
        dsp=params.get("bidder_name"),
        cleartext_price_cpm=cleartext,
        encrypted_token=encrypted,
        n_params=len(pairs),
        params=params,
    )
