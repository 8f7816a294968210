"""Tests for DSP bidding engines and the exchange auction host."""

import numpy as np
import pytest

from repro.rtb.adslots import AdSlotSize
from repro.rtb.bidding import Dsp, FeatureBidEngine
from repro.rtb.campaign import Campaign, TargetingSpec
from repro.rtb.exchange import AdExchange, PairEncryptionPolicy
from repro.rtb.nurl import parse_nurl
from repro.rtb.openrtb import BidRequest, Device, Geo, Impression, UserInfo
from repro.rtb.pricecrypto import decrypt_price
from repro.util.rng import stream
from repro.util.timeutil import epoch
from tests.rtb.reference import FixedBidEngine, always_cleartext


def make_request(auction_id="a1", iab="IAB12", adx="MoPub", city="Madrid"):
    return BidRequest(
        auction_id=auction_id,
        timestamp=epoch(2015, 6, 15, 10),
        imp=Impression(impression_id=f"{auction_id}-i", slot_size=AdSlotSize(300, 250)),
        publisher="news.example.es",
        publisher_iab=iab,
        device=Device(os="Android", device_type="smartphone"),
        geo=Geo(country="ES", city=city),
        user=UserInfo(exchange_uid="u1"),
        is_app=False,
        adx=adx,
    )


def flat_value(request):
    return 1.0


class TestFeatureBidEngine:
    def test_zero_noise_bid_equals_value(self):
        engine = FeatureBidEngine(value_model=flat_value, noise_sigma=0.0)
        campaign = Campaign("c", "adv", max_bid_cpm=10.0)
        bid = engine.price_bid(make_request(), campaign, stream("e1"))
        assert bid == pytest.approx(1.0)

    def test_aggressiveness_scales_bid(self):
        engine = FeatureBidEngine(
            value_model=flat_value, noise_sigma=0.0, aggressiveness=1.9
        )
        campaign = Campaign("c", "adv", max_bid_cpm=10.0)
        assert engine.price_bid(make_request(), campaign, stream("e2")) == pytest.approx(1.9)

    def test_bid_capped_by_campaign(self):
        engine = FeatureBidEngine(
            value_model=lambda r: 50.0, noise_sigma=0.0
        )
        campaign = Campaign("c", "adv", max_bid_cpm=5.0)
        assert engine.price_bid(make_request(), campaign, stream("e3")) == 5.0

    def test_zero_participation_never_bids(self):
        engine = FeatureBidEngine(
            value_model=flat_value, participation=0.0
        )
        campaign = Campaign("c", "adv")
        assert engine.price_bid(make_request(), campaign, stream("e4")) is None

    def test_nonpositive_value_no_bid(self):
        engine = FeatureBidEngine(value_model=lambda r: 0.0)
        campaign = Campaign("c", "adv")
        assert engine.price_bid(make_request(), campaign, stream("e5")) is None

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FeatureBidEngine(value_model=flat_value, noise_sigma=-1)
        with pytest.raises(ValueError):
            FeatureBidEngine(value_model=flat_value, aggressiveness=0)
        with pytest.raises(ValueError):
            FeatureBidEngine(value_model=flat_value, participation=2.0)


class TestDsp:
    def _dsp(self, campaigns=None, bid=1.0):
        return Dsp(
            "TestDSP",
            FixedBidEngine(bid_cpm=bid),
            stream("dsp"),
            campaigns=campaigns,
        )

    def test_responds_with_best_campaign(self):
        c_low = Campaign("low", "adv", max_bid_cpm=0.5)
        c_high = Campaign("high", "adv", max_bid_cpm=8.0)
        dsp = self._dsp([c_low, c_high], bid=3.0)
        response = dsp.respond(make_request())
        assert len(response.bids) == 1
        assert response.bids[0].campaign_id == "high"
        assert response.bids[0].price_cpm == 3.0

    def test_no_eligible_campaign_no_bid(self):
        targeting = TargetingSpec(cities=frozenset({"Torello"}))
        dsp = self._dsp([Campaign("c", "adv", targeting=targeting)])
        response = dsp.respond(make_request(city="Madrid"))
        assert not response.bids

    def test_notify_win_books_budget(self):
        campaign = Campaign("c", "adv", budget_usd=1.0)
        dsp = self._dsp([campaign])
        dsp.notify_win("c", 2.0)
        assert dsp.wins == 1
        assert campaign.impressions_won == 1
        assert dsp.total_spend_usd == pytest.approx(0.002)

    def test_notify_unknown_campaign_raises(self):
        dsp = self._dsp([Campaign("c", "adv")])
        with pytest.raises(KeyError):
            dsp.notify_win("ghost", 1.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            Dsp("", FixedBidEngine(1.0), stream("x"))


class TestAdExchange:
    def _market(self, policy=None):
        policy = policy or always_cleartext(
            ["MoPub"], ["D1", "D2"]
        )
        adx = AdExchange("MoPub", stream("adx"), floor_cpm=0.01)
        d1 = Dsp("D1", FixedBidEngine(2.0), stream("d1"), [Campaign("c1", "a1")])
        d2 = Dsp("D2", FixedBidEngine(1.0), stream("d2"), [Campaign("c2", "a2")])
        return adx, [d1, d2], policy

    def test_second_price_cleared_and_notified(self):
        adx, dsps, policy = self._market()
        record = adx.run_auction(make_request(), dsps, policy)
        assert record is not None
        assert record.outcome.winner.dsp == "D1"
        assert record.true_charge_price_cpm == pytest.approx(1.01)
        assert dsps[0].wins == 1
        assert dsps[1].wins == 0

    def test_nurl_parses_back_with_price(self):
        adx, dsps, policy = self._market()
        record = adx.run_auction(make_request(), dsps, policy)
        parsed = parse_nurl(record.nurl)
        assert parsed is not None
        assert parsed.cleartext_price_cpm == pytest.approx(1.01, abs=1e-4)
        assert parsed.dsp == "D1"

    def test_encrypted_policy_produces_decryptable_token(self):
        policy = PairEncryptionPolicy()
        policy.set_adoption("MoPub", "D1", 0.0)
        policy.set_adoption("MoPub", "D2", None)
        adx, dsps, _ = self._market()
        record = adx.run_auction(make_request(), dsps, policy)
        assert record.is_encrypted
        token = record.notification.encrypted_price
        assert decrypt_price(token, adx.keys) == pytest.approx(
            record.true_charge_price_cpm, abs=1e-6
        )

    def test_unsold_when_no_bids(self):
        adx = AdExchange("MoPub", stream("adx2"), floor_cpm=5.0)
        dsp = Dsp("D1", FixedBidEngine(1.0), stream("d3"), [Campaign("c", "a")])
        policy = always_cleartext(["MoPub"], ["D1"])
        assert adx.run_auction(make_request(), [dsp], policy) is None

    def test_revenue_accounting(self):
        adx, dsps, policy = self._market()
        adx.run_auction(make_request("a1"), dsps, policy)
        adx.run_auction(make_request("a2"), dsps, policy)
        assert adx.revenue_usd == pytest.approx(2 * 1.01 / 1000)

    def test_unknown_exchange_name_rejected(self):
        with pytest.raises(ValueError):
            AdExchange("NotAnExchange", stream("x"))


class TestPairEncryptionPolicy:
    def test_adoption_date_semantics(self):
        policy = PairEncryptionPolicy()
        policy.set_adoption("X", "Y", 100.0)
        assert not policy.is_encrypted("X", "Y", 99.0)
        assert policy.is_encrypted("X", "Y", 100.0)

    def test_unknown_pair_cleartext(self):
        assert not PairEncryptionPolicy().is_encrypted("X", "Y", 1e12)

    def test_encrypted_fraction_over_time(self):
        policy = PairEncryptionPolicy()
        policy.set_adoption("A", "d", 10.0)
        policy.set_adoption("B", "d", 20.0)
        policy.set_adoption("C", "d", None)
        assert policy.encrypted_fraction(5.0) == 0.0
        assert policy.encrypted_fraction(15.0) == pytest.approx(1 / 3)
        assert policy.encrypted_fraction(25.0) == pytest.approx(2 / 3)

    def test_empty_policy_fraction_zero(self):
        assert PairEncryptionPolicy().encrypted_fraction(0.0) == 0.0
