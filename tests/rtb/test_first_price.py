"""Tests for first-price auction clearing and the exchange mechanism knob."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtb.auction import run_first_price_auction, run_second_price_auction
from repro.rtb.bidding import Dsp
from repro.rtb.campaign import Campaign
from repro.rtb.exchange import AdExchange
from repro.rtb.openrtb import Bid
from repro.util.rng import stream
from tests.rtb.reference import FixedBidEngine, always_cleartext


def bid(dsp, price):
    return Bid(dsp=dsp, advertiser="a", campaign_id=f"c-{dsp}", price_cpm=price)


class TestFirstPriceClearing:
    def test_winner_pays_own_bid(self):
        outcome = run_first_price_auction([bid("a", 2.0), bid("b", 1.5)])
        assert outcome.winner.dsp == "a"
        assert outcome.charge_price_cpm == 2.0
        assert outcome.second_price_cpm == 1.5

    def test_floor_filters(self):
        assert run_first_price_auction([bid("a", 0.5)], floor_cpm=1.0) is None

    def test_single_bidder(self):
        outcome = run_first_price_auction([bid("a", 3.0)], floor_cpm=0.1)
        assert outcome.charge_price_cpm == 3.0
        assert outcome.second_price_cpm is None

    def test_negative_floor_rejected(self):
        from repro.rtb.auction import AuctionError

        with pytest.raises(AuctionError):
            run_first_price_auction([bid("a", 1.0)], floor_cpm=-1)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.01, 100, allow_nan=False), min_size=2, max_size=8))
    def test_first_price_charges_at_least_second_price(self, prices):
        bids = [bid(f"d{i}", p) for i, p in enumerate(prices)]
        first = run_first_price_auction(bids)
        second = run_second_price_auction(bids)
        assert first.charge_price_cpm >= second.charge_price_cpm - 1e-9
        assert first.winner.dsp == second.winner.dsp


class TestExchangeMechanism:
    def _run(self, mechanism, set_after=None):
        adx = AdExchange("MoPub", stream(f"fp-{mechanism}"), mechanism=mechanism)
        if set_after is not None:
            adx.mechanism = set_after
        dsps = [
            Dsp("D1", FixedBidEngine(2.0), stream("fp1"), [Campaign("c1", "a")]),
            Dsp("D2", FixedBidEngine(1.0), stream("fp2"), [Campaign("c2", "a")]),
        ]
        policy = always_cleartext(["MoPub"], ["D1", "D2"])
        from tests.rtb.test_bidding_exchange import make_request

        return adx.run_auction(make_request(), dsps, policy)

    def test_first_price_exchange_charges_bid(self):
        record = self._run("first_price")
        assert record.true_charge_price_cpm == pytest.approx(2.0)

    def test_second_price_exchange_charges_runner_up(self):
        record = self._run("second_price")
        assert record.true_charge_price_cpm == pytest.approx(1.01)

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(ValueError):
            AdExchange("MoPub", stream("fp3"), mechanism="all_pay")

    def test_unknown_mechanism_set_after_construction_raises(self):
        """A misspelt mechanism set past the constructor's check must not
        silently clear second-price."""
        with pytest.raises(ValueError, match="all_pay"):
            self._run("second_price", set_after="all_pay")
