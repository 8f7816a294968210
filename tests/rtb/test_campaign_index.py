"""The DSP's campaign-candidate index against a full scan of the book.

``Dsp.respond`` visits only the campaigns a :class:`CampaignIndex`
admits on ADX, city, slot size and publisher IAB.  These tests drive an
indexed DSP and a twin answered by ``reference_respond`` (every campaign
of the book through ``eligible_for``) with the same requests, and
require the same bids, the same budgets and the same generator state.
"""

from __future__ import annotations

import copy
import zlib

import numpy as np
import pytest

from repro.rtb.adslots import AdSlotSize
from repro.rtb.bidding import CampaignIndex, Dsp, FeatureBidEngine
from repro.rtb.campaign import CAMPAIGN_DAYPARTS, Campaign, TargetingSpec
from repro.rtb.openrtb import BidRequest, Device, Geo, Impression, UserInfo
from repro.util.rng import stream
from repro.util.timeutil import epoch
from tests.rtb.reference import FixedBidEngine, reference_respond

ADXS = ("MoPub", "Rubicon", "OpenX", "DoubleClick")
CITIES = ("Madrid", "Barcelona", "Valencia", "Sevilla")
SLOTS = ("300x250", "320x50", "728x90")
IABS = ("IAB1", "IAB3", "IAB12", "IAB15")
#: Values outside the shared vocabulary; some campaigns and some requests
#: carry them, so postings and lookups both meet unmatched values.
STRAY = {"adxs": "Smaato", "cities": "Bilbao", "slot_sizes": "160x600",
         "iab_categories": "IAB26"}
VOCAB = {"adxs": ADXS, "cities": CITIES, "slot_sizes": SLOTS, "iab_categories": IABS,
         "contexts": ("app", "web"), "dayparts": CAMPAIGN_DAYPARTS,
         "day_types": ("weekday", "weekend"), "oses": ("Android", "iOS")}


def _value(request: BidRequest) -> float:
    return 0.2 + (zlib.crc32(request.auction_id.encode()) % 1000) / 250


def _engine() -> FeatureBidEngine:
    # Noise and participation both draw from the DSP's generator, so any
    # difference in which campaigns are priced shows in its state.
    return FeatureBidEngine(value_model=_value, noise_sigma=0.3, participation=0.8)


def _subset(rng: np.random.Generator, field_name: str):
    """``None`` (wildcard) or a one-to-three value set, sometimes stray."""
    if rng.random() < 0.4:
        return None
    values = list(VOCAB[field_name])
    if field_name in STRAY:
        values.append(STRAY[field_name])
    k = int(rng.integers(1, 4))
    return frozenset(rng.choice(values, size=min(k, len(values)), replace=False).tolist())


def _book(rng: np.random.Generator, n: int, prefix: str = "c") -> list[Campaign]:
    book = []
    for i in range(n):
        targeting = TargetingSpec(**{name: _subset(rng, name) for name in VOCAB})
        budget = (float("inf"), 0.0, 0.02, 0.05)[int(rng.integers(0, 4))]
        book.append(Campaign(f"{prefix}{i:02d}", f"Adv{i % 5}", targeting=targeting,
                             max_bid_cpm=float(rng.uniform(0.5, 5.0)),
                             budget_usd=budget))
    return book


def _request(rng: np.random.Generator, k: int) -> BidRequest:
    def pick(values, stray=None):
        if stray is not None and rng.random() < 0.1:
            return stray
        return values[int(rng.integers(0, len(values)))]

    ts = epoch(2015, 1, 1) + float(rng.uniform(0, 365 * 86_400))
    return BidRequest(
        auction_id=f"a{k:05d}",
        timestamp=ts,
        imp=Impression(impression_id=f"a{k:05d}-i0",
                       slot_size=AdSlotSize.parse(pick(SLOTS, "160x600"))),
        publisher="news.example.es",
        publisher_iab=pick(IABS, "IAB26"),
        device=Device(os=pick(("Android", "iOS")), device_type="smartphone"),
        geo=Geo(country="ES", city=pick(CITIES, "Bilbao")),
        user=UserInfo(exchange_uid="u"),
        is_app=bool(rng.random() < 0.5),
        adx=pick(ADXS, "Smaato"),
    )


def _serve(indexed: Dsp, scanned: Dsp, rng: np.random.Generator, start: int,
           count: int) -> int:
    bids = 0
    for k in range(start, start + count):
        request = _request(rng, k)
        got = indexed.respond(request)
        want = reference_respond(scanned, request)
        assert got == want, f"request {k}"
        for bid in got.bids:
            bids += 1
            indexed.notify_win(bid.campaign_id, bid.price_cpm * 0.8, request)
            scanned.notify_win(bid.campaign_id, bid.price_cpm * 0.8, request)
    return bids


def _state(dsp: Dsp):
    return ([(c.campaign_id, c.spent_usd, c.impressions_won) for c in dsp.campaigns],
            dsp.wins, dsp.total_spend_usd, dsp.rng.bit_generator.state)


@pytest.mark.tier1
@pytest.mark.parametrize("seed", range(6))
def test_index_matches_full_scan(seed):
    rng = np.random.default_rng(seed)
    book = _book(rng, 40)
    indexed = Dsp("D", _engine(), stream("dsp", seed), campaigns=book)
    scanned = Dsp("D", _engine(), stream("dsp", seed), campaigns=copy.deepcopy(book))

    bids = _serve(indexed, scanned, rng, 0, 300)
    # Campaigns added after responses were served must join the index.
    for campaign in _book(rng, 8, prefix="late"):
        indexed.add_campaign(campaign)
        scanned.add_campaign(copy.deepcopy(campaign))
    bids += _serve(indexed, scanned, rng, 300, 300)

    assert bids > 50
    assert any(c.exhausted for c in indexed.campaigns)
    assert _state(indexed) == _state(scanned)


def test_candidates_are_a_book_order_superset_of_eligible():
    rng = np.random.default_rng(11)
    book = _book(rng, 30)
    index = CampaignIndex(book)
    positions = {id(c): i for i, c in enumerate(book)}
    for k in range(400):
        request = _request(rng, k)
        candidates = index.candidates(request)
        order = [positions[id(c)] for c in candidates]
        assert order == sorted(order)
        admitted = {id(c) for c in candidates}
        for campaign in book:
            if campaign.eligible_for(request):
                assert id(campaign) in admitted


def test_wildcard_always_admitted_pinned_only_on_match():
    anywhere = Campaign("any", "adv")
    pinned = Campaign("pinned", "adv", targeting=TargetingSpec(
        adxs=frozenset({"MoPub", "OpenX"}), cities=frozenset({"Madrid"})))
    index = CampaignIndex([anywhere, pinned])
    rng = np.random.default_rng(0)
    for k in range(100):
        request = _request(rng, k)
        expected = [anywhere]
        if request.adx in {"MoPub", "OpenX"} and request.geo.city == "Madrid":
            expected.append(pinned)
        assert index.candidates(request) == expected


class TestDuplicateCampaignIds:
    """A DSP books wins by campaign id, so ids must be unique in its book."""

    def test_constructor_rejects_duplicate(self):
        with pytest.raises(ValueError, match="'c'"):
            Dsp("D", FixedBidEngine(1.0), stream("dup"),
                [Campaign("c", "a"), Campaign("c", "b")])

    def test_add_campaign_rejects_duplicate(self):
        dsp = Dsp("D", FixedBidEngine(1.0), stream("dup"), [Campaign("c", "a")])
        with pytest.raises(ValueError, match="'c'"):
            dsp.add_campaign(Campaign("c", "b", max_bid_cpm=20.0))
        assert [c.advertiser for c in dsp.campaigns] == ["a"]


class TestEngineValidationMessages:
    @pytest.mark.parametrize("kwargs, shown", [
        ({"aggressiveness": -2.5}, "-2.5"),
        ({"aggressiveness": 0}, "got 0"),
        ({"participation": 1.5}, "1.5"),
        ({"noise_sigma": -0.25}, "-0.25"),
    ])
    def test_error_reports_bad_value(self, kwargs, shown):
        with pytest.raises(ValueError, match=shown):
            FeatureBidEngine(value_model=_value, **kwargs)
