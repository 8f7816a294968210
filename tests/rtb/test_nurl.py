"""Tests for nURL building and observer-side parsing."""

from urllib.parse import parse_qsl

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtb.nurl import (
    CHARGE_PRICE_PARAMS,
    FORMATS,
    WinNotification,
    build_nurl,
    parse_nurl,
    split_query,
)
from repro.rtb.pricecrypto import PriceKeys, encrypt_price
from tests.rtb.reference import (
    reference_build_nurl,
    reference_nurl_params,
    reference_parse_nurl,
)

KEYS = PriceKeys.derive("nurl-test")
TOKEN = encrypt_price(1.5, KEYS, bytes(16))


def make_notification(adx="MoPub", price=0.95, encrypted=False, **kwargs):
    defaults = dict(
        adx=adx,
        dsp="Criteo-DSP",
        charge_price_cpm=None if encrypted else price,
        encrypted_price=TOKEN if encrypted else None,
        impression_id="imp-1",
        auction_id="auc-1",
        ad_domain="brand.example.com",
        slot_size="300x250",
        publisher="news.example.es",
        country="ES",
        bid_price_cpm=1.10,
        campaign_id="cmp-7",
    )
    defaults.update(kwargs)
    return WinNotification(**defaults)


class TestWinNotification:
    def test_requires_exactly_one_price(self):
        with pytest.raises(ValueError):
            WinNotification(
                adx="MoPub", dsp="d", charge_price_cpm=1.0, encrypted_price=TOKEN,
                impression_id="i", auction_id="a",
            )
        with pytest.raises(ValueError):
            WinNotification(
                adx="MoPub", dsp="d", charge_price_cpm=None, encrypted_price=None,
                impression_id="i", auction_id="a",
            )

    def test_is_encrypted_flag(self):
        assert make_notification(encrypted=True).is_encrypted
        assert not make_notification().is_encrypted


class TestBuildParse:
    @pytest.mark.parametrize("adx", sorted(FORMATS))
    def test_cleartext_roundtrip_every_exchange(self, adx):
        n = make_notification(adx=adx, price=0.4321)
        parsed = parse_nurl(build_nurl(n))
        assert parsed is not None
        assert parsed.adx == adx
        assert not parsed.is_encrypted
        assert parsed.cleartext_price_cpm == pytest.approx(0.4321, abs=1e-4)
        assert parsed.dsp == "Criteo-DSP"
        assert parsed.campaign_id == "cmp-7"

    @pytest.mark.parametrize("adx", sorted(FORMATS))
    def test_encrypted_roundtrip_every_exchange(self, adx):
        n = make_notification(adx=adx, encrypted=True)
        parsed = parse_nurl(build_nurl(n))
        assert parsed is not None
        assert parsed.is_encrypted
        assert parsed.encrypted_token == TOKEN
        assert parsed.cleartext_price_cpm is None

    def test_slot_size_recovered_from_size_param(self):
        parsed = parse_nurl(build_nurl(make_notification(adx="MoPub")))
        assert parsed.slot_size == "300x250"

    def test_slot_size_recovered_from_width_height(self):
        parsed = parse_nurl(build_nurl(make_notification(adx="Turn")))
        assert parsed.slot_size == "300x250"

    def test_bid_price_never_mistaken_for_charge(self):
        """MoPub carries bid_price too; the parser must take charge_price."""
        n = make_notification(adx="MoPub", price=0.5, bid_price_cpm=9.99)
        parsed = parse_nurl(build_nurl(n))
        assert parsed.cleartext_price_cpm == pytest.approx(0.5, abs=1e-4)

    def test_unknown_exchange_rejected_on_build(self):
        with pytest.raises(ValueError):
            build_nurl(make_notification(adx="NoSuchX"))

    @given(st.floats(min_value=0.001, max_value=99, allow_nan=False))
    @settings(max_examples=30)
    def test_price_roundtrip_precision(self, price):
        parsed = parse_nurl(build_nurl(make_notification(price=price)))
        assert parsed.cleartext_price_cpm == pytest.approx(price, abs=1e-4)


class TestParserRobustness:
    def test_unknown_host_returns_none(self):
        assert parse_nurl("https://unknown.example.com/win?price=1.0") is None

    def test_content_url_returns_none(self):
        assert parse_nurl("https://news.example.es/page/1") is None

    def test_known_host_without_price_returns_none(self):
        assert parse_nurl("https://cpp.imp.mpx.mopub.com/imp?foo=bar") is None

    def test_negative_price_rejected(self):
        assert parse_nurl("https://cpp.imp.mpx.mopub.com/imp?charge_price=-1") is None

    def test_garbled_price_returns_none(self):
        assert (
            parse_nurl("https://cpp.imp.mpx.mopub.com/imp?charge_price=oops") is None
        )

    def test_malformed_url_returns_none(self):
        assert parse_nurl("not a url at all") is None

    def test_params_preserved(self):
        parsed = parse_nurl(build_nurl(make_notification()))
        assert parsed.params.get("country") == "ES"
        assert parsed.params.get("pub_name") == "news.example.es"


#: Values that need escaping, one reserved character each, or sit at
#: the edge of the unreserved set: space, the query delimiters, the
#: escape character, tilde (unreserved since Python 3.7), non-ASCII.
HOSTILE = ("a b", "x&y", "k=v", "100%", "a+b", "a/b", "a?b", "a#b", "~tilde~",
           "caf\u00e9", "\u65e5\u672c", "", "-._~")


@pytest.mark.tier1
class TestBuildMatchesUrlencode:
    """``build_nurl`` is byte-identical to the ``urlencode`` reference."""

    @pytest.mark.parametrize("adx", sorted(FORMATS))
    def test_every_exchange(self, adx):
        for encrypted in (False, True):
            for bid in (None, 1.1):
                for size in ("300x250", ""):
                    n = make_notification(adx=adx, price=0.4321, encrypted=encrypted,
                                          bid_price_cpm=bid, slot_size=size)
                    assert build_nurl(n) == reference_build_nurl(n)

    @pytest.mark.parametrize("value", HOSTILE)
    def test_hostile_values_and_round_trip(self, value):
        for adx in sorted(FORMATS):
            for encrypted in (False, True):
                n = make_notification(
                    adx=adx, encrypted=encrypted, impression_id=f"imp {value}",
                    auction_id=value, dsp=f"dsp{value}", ad_domain=value,
                    publisher=value, country=value, campaign_id=value,
                    currency=value or "USD",
                )
                url = build_nurl(n)
                assert url == reference_build_nurl(n), (adx, encrypted)
                parsed = parse_nurl(url)
                assert parsed is not None
                assert parsed.adx == adx
                assert parsed.params == dict(reference_nurl_params(n))
                assert parsed == reference_parse_nurl(url)

    @given(
        st.sampled_from(sorted(FORMATS)),
        st.text(max_size=12),
        st.text(min_size=1, max_size=12),
        st.floats(min_value=0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_text(self, adx, text, dsp, price):
        n = make_notification(adx=adx, price=price, auction_id=text,
                              publisher=text, dsp=dsp)
        assert build_nurl(n) == reference_build_nurl(n)


#: Raw query text: the delimiters and escape characters a query can
#: hold unescaped (``%``, ``+``, ``;``, ``#``, ``&``, ``=``), valid and
#: broken escapes, digits for prices and non-ASCII letters.
_QUERY_TEXT = st.lists(
    st.sampled_from(
        ["a", "Z", "0", "9", ".", "-", "%", "+", ";", "#", "&", "=", " ",
         "%41", "%2", "%zz", "%E2%82%AC", "\u00e9", "\u65e5", "\U0001f600"]
    ),
    max_size=12,
).map("".join)

_FIELD_NAMES = st.sampled_from(
    CHARGE_PRICE_PARAMS + ("bidder_name", "pub_name", "cmp_id", "size",
                           "width", "height", "bid_price", "")
)


@st.composite
def _hostile_nurls(draw):
    """A known exchange's URL whose raw query mixes real fields, hostile
    values, empty fields (``&&``) and doubled ``=``."""
    fmt = FORMATS[draw(st.sampled_from(sorted(FORMATS)))]
    fields = draw(st.lists(
        st.one_of(
            st.tuples(_FIELD_NAMES, st.sampled_from(["=", "==", ""]), _QUERY_TEXT),
            st.tuples(_FIELD_NAMES, st.just("="), st.sampled_from(
                ["0.5000", "1e400", "nan", "-1", TOKEN, TOKEN[:-2] + "%3D%3D"])),
            st.just(("", "", "")),
        ),
        max_size=8,
    ))
    price = (draw(st.sampled_from(CHARGE_PRICE_PARAMS)), "=",
             draw(st.sampled_from(["0.5000", "12", TOKEN])))
    fields.insert(draw(st.integers(0, len(fields))), price)
    query = "&".join(name + sep + value for name, sep, value in fields)
    tail = draw(st.sampled_from(["", "#frag", "#a&b=c", ";p=1"]))
    return f"{fmt.base_url()}?{query}{tail}"


@pytest.mark.tier1
class TestParseMatchesUrllib:
    """``parse_nurl`` equals its urllib reference field for field."""

    @given(st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text(self, text):
        assert parse_nurl(text) == reference_parse_nurl(text)

    @given(st.sampled_from(sorted(FORMATS)), st.text(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text_after_a_known_host(self, adx, text):
        url = FORMATS[adx].base_url() + text
        assert parse_nurl(url) == reference_parse_nurl(url)

    @given(_hostile_nurls())
    @settings(max_examples=300, deadline=None)
    def test_hostile_queries(self, url):
        assert parse_nurl(url) == reference_parse_nurl(url)


@pytest.mark.tier1
class TestSplitQuery:
    """The shared query splitter equals ``parse_qsl(q, keep_blank_values=True)``."""

    @given(st.text(max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_text(self, query):
        assert split_query(query) == parse_qsl(query, keep_blank_values=True)

    @given(_QUERY_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_delimiter_heavy_text(self, query):
        assert split_query(query) == parse_qsl(query, keep_blank_values=True)

    @pytest.mark.parametrize("query", ["", "&", "&&a=1&&", "a", "a=", "=b",
                                       "a==b", "a=b=c", "a=1&a=2", "a+b=c%20d"])
    def test_edge_cases(self, query):
        assert split_query(query) == parse_qsl(query, keep_blank_values=True)
