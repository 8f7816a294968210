"""Tests for the probe ad-campaign planner and executor."""

import numpy as np
import pytest

from repro.core.campaigns import (
    PROBE_DSP_NAME,
    ProbeImpression,
    ReportRow,
    build_probe_setups,
    run_campaign_a1,
    run_campaign_a2,
)
from repro.rtb.adslots import CAMPAIGN_PHONE_SIZES, CAMPAIGN_TABLET_SIZES, AdSlotSize
from repro.rtb.entities import ENCRYPTING_ADXS
from repro.rtb.openrtb import BidRequest, Device, Geo, Impression, UserInfo
from repro.trace.geography import CAMPAIGN_CITIES
from repro.trace.simulate import build_market, small_config
from repro.util.rng import RngRegistry
from repro.util.timeutil import (
    CAMPAIGN_A1_PERIOD,
    CAMPAIGN_A2_PERIOD,
    day_of_week,
    epoch,
    hour_of,
    is_weekend,
)


class TestSetupGrid:
    def test_144_setups(self):
        setups = build_probe_setups(tuple(ENCRYPTING_ADXS))
        assert len(setups) == 144

    def test_ids_unique(self):
        setups = build_probe_setups(tuple(ENCRYPTING_ADXS))
        assert len({s.setup_id for s in setups}) == 144

    def test_covers_table5_vocabulary(self):
        setups = build_probe_setups(tuple(ENCRYPTING_ADXS))
        assert {s.city for s in setups} == set(CAMPAIGN_CITIES)
        assert {s.context for s in setups} == {"app", "web"}
        assert {s.day_type for s in setups} == {"weekday", "weekend"}
        assert {s.os for s in setups} == {"Android", "iOS"}
        assert {s.adx for s in setups} == set(ENCRYPTING_ADXS)

    def test_tablet_setups_use_tablet_formats(self):
        for setup in build_probe_setups(("MoPub",)):
            if setup.device_type == "tablet":
                assert setup.slot_size in CAMPAIGN_TABLET_SIZES
            else:
                assert setup.slot_size in CAMPAIGN_PHONE_SIZES

    def test_a2_targets_only_mopub(self):
        assert {s.adx for s in build_probe_setups(("MoPub",))} == {"MoPub"}


@pytest.fixture(scope="module")
def market():
    return build_market(small_config(), RngRegistry(small_config().seed))


@pytest.fixture(scope="module")
def a1(market):
    return run_campaign_a1(market, seed=11, auctions_per_setup=8)


@pytest.fixture(scope="module")
def a2(market):
    return run_campaign_a2(market, seed=11, auctions_per_setup=8)


class TestCampaignExecution:
    def test_wins_substantial_fraction(self, a1, a2):
        assert len(a1.impressions) > 100
        assert len(a2.impressions) > 400

    def test_a1_prices_positive(self, a1):
        assert (a1.prices() > 0).all()

    def test_impressions_respect_targeting(self, a1):
        setups = {s.setup_id: s for s in a1.setups}
        for imp in a1.impressions:
            setup = setups[imp.setup_id]
            row = imp.report
            assert row.city == setup.city
            assert row.context == setup.context
            assert row.os == setup.os
            assert row.device_type == setup.device_type
            assert row.slot_size == setup.slot_size
            assert row.adx == setup.adx
            assert is_weekend(row.timestamp) == (setup.day_type == "weekend")

    def test_timestamps_inside_campaign_window(self, a1, a2):
        for imp in a1.impressions:
            p = CAMPAIGN_A1_PERIOD
            assert p.start <= imp.report.timestamp < p.end
        for imp in a2.impressions:
            p = CAMPAIGN_A2_PERIOD
            assert p.start <= imp.report.timestamp < p.end

    def test_daypart_respected(self, a1):
        setups = {s.setup_id: s for s in a1.setups}
        for imp in a1.impressions:
            hour = hour_of(imp.report.timestamp)
            daypart = setups[imp.setup_id].daypart
            if daypart == "12am-9am":
                assert hour < 9
            elif daypart == "9am-6pm":
                assert 9 <= hour < 18
            else:
                assert hour >= 18

    def test_encrypted_channel_flags(self, a1, a2):
        assert all(i.encrypted_channel for i in a1.impressions)
        assert all(not i.encrypted_channel for i in a2.impressions)

    def test_encrypted_campaign_prices_higher(self, a1, a2):
        """Section 6.1: A1 medians exceed A2 medians (~1.7x)."""
        ratio = float(np.median(a1.prices()) / np.median(a2.prices()))
        assert 1.2 < ratio < 2.4

    def test_impressions_keep_compact_rows(self, a1):
        """An impression keeps its report row, not the bid request."""
        for imp in a1.impressions[:20]:
            assert not hasattr(imp, "__dict__")
            assert not hasattr(imp.report, "__dict__")
            assert imp.report.campaign_id == f"A1-{imp.setup_id}"
            assert imp.charge_price_cpm == imp.report.charge_price_cpm

    def test_feature_rows_schema(self, a1):
        row = a1.feature_rows()[0]
        assert {
            "context", "device_type", "city", "time_of_day", "day_of_week",
            "slot_size", "publisher_iab", "adx", "os", "publisher",
        } <= set(row)

    def test_prices_by_iab_groups(self, a1):
        groups = a1.prices_by_iab()
        assert groups
        assert all(len(v) > 0 for v in groups.values())

    def test_summary_fields(self, a1):
        summary = a1.summary()
        assert summary["impressions"] == len(a1.impressions)
        assert summary["median_cpm"] > 0
        assert round(summary["period_days"]) == 13

    def test_policy_pins_probe_channel(self):
        # Fresh market: running A2 afterwards re-pins the probe's
        # channel, so the A1 policy must be asserted in isolation.
        fresh = build_market(small_config(), RngRegistry(3))
        run_campaign_a1(fresh, seed=5, auctions_per_setup=1)
        ts = CAMPAIGN_A1_PERIOD.start + 10
        for adx in ENCRYPTING_ADXS:
            assert fresh.policy.is_encrypted(adx, PROBE_DSP_NAME, ts)
        assert not fresh.policy.is_encrypted("MoPub", PROBE_DSP_NAME, ts)


class TestReportRow:
    def _request(self):
        return BidRequest(
            auction_id="A1-00000001",
            timestamp=epoch(2016, 5, 14, 19) + 125.5,
            imp=Impression(
                impression_id="A1-00000001-i0", slot_size=AdSlotSize(320, 50)
            ),
            publisher="news.example.es",
            publisher_iab="IAB12",
            device=Device(os="iOS", device_type="smartphone"),
            geo=Geo(country="ES", city="Madrid"),
            user=UserInfo(exchange_uid="u1"),
            is_app=True,
            adx="MoPub",
        )

    def test_feature_row_matches_the_request(self):
        req = self._request()
        row = ReportRow("A1-setup-000", 1.25, True, req)
        assert ProbeImpression("setup-000", row).feature_row() == {
            "context": req.context,
            "device_type": req.device.device_type,
            "city": req.geo.city,
            "time_of_day": hour_of(req.timestamp) // 4,
            "day_of_week": day_of_week(req.timestamp),
            "slot_size": req.imp.slot_size.label,
            "publisher_iab": req.publisher_iab,
            "adx": req.adx,
            "os": req.device.os,
            "publisher": req.publisher,
        }
        assert (row.campaign_id, row.charge_price_cpm, row.encrypted_channel) == (
            "A1-setup-000", 1.25, True
        )
        assert row.timestamp == req.timestamp

    def test_row_shares_the_request_strings(self):
        req = self._request()
        row = ReportRow("A1-setup-000", 1.25, False, req)
        assert row.publisher is req.publisher
        assert row.city is req.geo.city
        assert row.os is req.device.os
        assert row.slot_size is ReportRow("x", 1.0, False, req).slot_size
