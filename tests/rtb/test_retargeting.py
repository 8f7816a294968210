"""Tests for the retargeting bidding extension (the paper's future work)."""

import numpy as np
import pytest

from repro.rtb.adslots import AdSlotSize
from repro.rtb.bidding import Dsp, RetargetingEngine
from repro.rtb.campaign import Campaign
from repro.rtb.cookiesync import synced_uid
from repro.rtb.openrtb import BidRequest, Device, Geo, Impression, UserInfo
from repro.util.rng import stream
from repro.util.timeutil import epoch
from tests.rtb.reference import FixedBidEngine, always_cleartext

DSP = "Retargeter"


def make_request(user_id="u1", synced=True):
    buyer_uids = {DSP: synced_uid(DSP, user_id)} if synced else {}
    return BidRequest(
        auction_id=f"a-{user_id}",
        timestamp=epoch(2015, 6, 15, 10),
        imp=Impression(impression_id="i", slot_size=AdSlotSize(300, 250)),
        publisher="shop.example.es",
        publisher_iab="IAB22",
        device=Device(os="Android", device_type="smartphone"),
        geo=Geo(country="ES", city="Madrid"),
        user=UserInfo(
            exchange_uid=synced_uid("MoPub", user_id), buyer_uids=buyer_uids
        ),
        is_app=False,
        adx="MoPub",
    )


def engine_for(users, boost=2.0, noise=0.0):
    return RetargetingEngine(
        dsp_name=DSP,
        value_model=lambda r: 1.0,
        audience_uids=frozenset(synced_uid(DSP, u) for u in users),
        boost=boost,
        noise_sigma=noise,
    )


class TestRetargetingEngine:
    def test_bids_only_on_audience(self):
        engine = engine_for(["u1"])
        campaign = Campaign("c", "adv", max_bid_cpm=10)
        assert engine.price_bid(make_request("u1"), campaign, stream("r1")) is not None
        assert engine.price_bid(make_request("u2"), campaign, stream("r2")) is None

    def test_requires_cookie_sync(self):
        """Without a sync, the DSP cannot recognise the user."""
        engine = engine_for(["u1"])
        campaign = Campaign("c", "adv", max_bid_cpm=10)
        request = make_request("u1", synced=False)
        assert engine.price_bid(request, campaign, stream("r3")) is None

    def test_boost_applied(self):
        engine = engine_for(["u1"], boost=2.5)
        campaign = Campaign("c", "adv", max_bid_cpm=10)
        bid = engine.price_bid(make_request("u1"), campaign, stream("r4"))
        assert bid == pytest.approx(2.5)

    def test_bid_capped(self):
        engine = engine_for(["u1"], boost=50.0)
        campaign = Campaign("c", "adv", max_bid_cpm=5.0)
        assert engine.price_bid(make_request("u1"), campaign, stream("r5")) == 5.0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            engine_for(["u1"], boost=0.0)
        with pytest.raises(ValueError):
            RetargetingEngine(DSP, lambda r: 1.0, frozenset(), noise_sigma=-1)

    def test_dsp_integration(self):
        dsp = Dsp(
            DSP,
            engine_for(["u1"], boost=3.0),
            stream("r6"),
            campaigns=[Campaign("c", "adv", max_bid_cpm=10)],
        )
        response_in = dsp.respond(make_request("u1"))
        response_out = dsp.respond(make_request("u2"))
        assert len(response_in.bids) == 1
        assert response_in.bids[0].price_cpm == pytest.approx(3.0)
        assert not response_out.bids


class TestRetargetingInMarket:
    def test_retargeted_users_draw_higher_prices(self):
        """The mechanism behind the paper's encrypted-premium hypothesis:
        retargeting demand raises the charge prices of targeted users."""
        from repro.rtb.auction import run_second_price_auction
        from repro.rtb.exchange import AdExchange

        adx = AdExchange("MoPub", stream("m1"))
        base = Dsp("Base", FixedBidEngine(1.0), stream("m2"),
                   [Campaign("b", "adv")])
        base2 = Dsp("Base2", FixedBidEngine(0.8), stream("m3"),
                    [Campaign("b2", "adv")])
        retargeter = Dsp(
            DSP, engine_for(["hot"], boost=3.0), stream("m4"),
            [Campaign("r", "shop")],
        )
        policy = always_cleartext(
            ["MoPub"], ["Base", "Base2", DSP]
        )
        hot = adx.run_auction(make_request("hot"), [base, base2, retargeter], policy)
        cold = adx.run_auction(make_request("cold"), [base, base2, retargeter], policy)
        # The retargeter wins its audience member and pays the next bid;
        # the cold user clears at the plain second price.
        assert hot.outcome.winner.dsp == DSP
        assert hot.true_charge_price_cpm > cold.true_charge_price_cpm
