"""Cross-cutting property-based tests (hypothesis).

These pin the invariants the whole methodology rests on: wire-format
round trips, estimator outputs staying in the binner's range, auction
conservation laws, and the monotonicity of the cost pipeline.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.binning import fit_price_binner
from repro.rtb.auction import run_second_price_auction
from repro.rtb.nurl import WinNotification, build_nurl, parse_nurl
from repro.rtb.openrtb import Bid
from repro.rtb.pricecrypto import PriceKeys, decrypt_price, encrypt_price

KEYS = PriceKeys.derive("prop")

prices = st.floats(min_value=0.001, max_value=500.0, allow_nan=False)
price_lists = st.lists(prices, min_size=8, max_size=120)


class TestWireFormatProperties:
    @settings(max_examples=60, deadline=None)
    @given(prices, st.binary(min_size=16, max_size=16))
    def test_encrypt_decrypt_identity(self, cpm, iv):
        token = encrypt_price(cpm, KEYS, iv)
        assert decrypt_price(token, KEYS) == pytest.approx(cpm, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(
        prices,
        st.sampled_from(["MoPub", "OpenX", "Turn", "Rubicon", "Adnxs"]),
        st.sampled_from(["300x250", "320x50", "728x90"]),
    )
    def test_nurl_roundtrip_identity(self, cpm, adx, slot):
        notification = WinNotification(
            adx=adx,
            dsp="DSP-X",
            charge_price_cpm=cpm,
            encrypted_price=None,
            impression_id="i",
            auction_id="a",
            slot_size=slot,
            publisher="p.example.es",
        )
        parsed = parse_nurl(build_nurl(notification))
        assert parsed is not None
        assert parsed.adx == adx
        assert parsed.cleartext_price_cpm == pytest.approx(cpm, abs=1e-4 * max(1, cpm))
        assert parsed.slot_size == slot


class TestAuctionProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(prices, min_size=1, max_size=12), st.floats(0.0, 5.0))
    def test_charge_bounded_by_winner_and_floor(self, bid_prices, floor):
        bids = [
            Bid(dsp=f"d{i}", advertiser="a", campaign_id=f"c{i}", price_cpm=p)
            for i, p in enumerate(bid_prices)
        ]
        outcome = run_second_price_auction(bids, floor_cpm=floor)
        eligible = [p for p in bid_prices if p >= floor]
        if not eligible:
            assert outcome is None
            return
        assert outcome is not None
        assert outcome.winner.price_cpm == max(eligible)
        assert outcome.charge_price_cpm <= outcome.winner.price_cpm + 1e-9
        if len(eligible) == 1 and floor > 0:
            assert outcome.charge_price_cpm == pytest.approx(floor)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(prices, min_size=2, max_size=12))
    def test_bidding_higher_never_lowers_revenue(self, bid_prices):
        """Seller-side monotonicity of second-price auctions."""
        bids = [
            Bid(dsp=f"d{i}", advertiser="a", campaign_id=f"c{i}", price_cpm=p)
            for i, p in enumerate(bid_prices)
        ]
        base = run_second_price_auction(bids)
        boosted = list(bids)
        boosted[0] = Bid(
            dsp="d0", advertiser="a", campaign_id="c0",
            price_cpm=bid_prices[0] * 2,
        )
        higher = run_second_price_auction(boosted)
        assert higher.charge_price_cpm >= base.charge_price_cpm - 1e-9


class TestBinnerProperties:
    @settings(max_examples=30, deadline=None)
    @given(price_lists)
    def test_assignment_total_and_in_range(self, sample):
        if len(set(sample)) < 4:
            return
        binner = fit_price_binner(sample, n_classes=4)
        labels = binner.assign(sample)
        assert labels.min() >= 0
        assert labels.max() < 4
        assert sum(binner.counts) == len(sample)

    @settings(max_examples=30, deadline=None)
    @given(price_lists)
    def test_estimates_within_sample_range(self, sample):
        if len(set(sample)) < 4:
            return
        binner = fit_price_binner(sample, n_classes=4)
        estimates = binner.estimate(binner.assign(sample))
        assert estimates.min() >= min(sample) - 1e-9
        assert estimates.max() <= max(sample) + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(price_lists, prices)
    def test_single_price_estimate_monotone(self, sample, probe):
        if len(set(sample)) < 4:
            return
        binner = fit_price_binner(sample, n_classes=4)
        lower, higher = binner.assign([probe, probe * 3.0])
        assert higher >= lower
