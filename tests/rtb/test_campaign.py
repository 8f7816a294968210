"""Tests for campaign targeting and budgets."""

import pytest

from repro.rtb.adslots import AdSlotSize
from repro.rtb.campaign import Campaign, TargetingSpec, campaign_daypart
from repro.rtb.openrtb import BidRequest, Device, Geo, Impression, UserInfo
from repro.util.timeutil import epoch


def make_request(
    city="Madrid",
    is_app=True,
    hour=10,
    day=5,          # 2015-01-05 is a Monday
    device_type="smartphone",
    os="Android",
    slot="300x250",
    adx="MoPub",
    iab="IAB12",
):
    ts = epoch(2015, 1, day, hour)
    return BidRequest(
        auction_id="a1",
        timestamp=ts,
        imp=Impression(impression_id="i1", slot_size=AdSlotSize.parse(slot)),
        publisher="pub.example.es",
        publisher_iab=iab,
        device=Device(os=os, device_type=device_type),
        geo=Geo(country="ES", city=city),
        user=UserInfo(exchange_uid="u1"),
        is_app=is_app,
        adx=adx,
    )


class TestDayparts:
    def test_boundaries(self):
        assert campaign_daypart(epoch(2015, 1, 5, 0)) == "12am-9am"
        assert campaign_daypart(epoch(2015, 1, 5, 8, 59)) == "12am-9am"
        assert campaign_daypart(epoch(2015, 1, 5, 9)) == "9am-6pm"
        assert campaign_daypart(epoch(2015, 1, 5, 17, 59)) == "9am-6pm"
        assert campaign_daypart(epoch(2015, 1, 5, 18)) == "6pm-12am"
        assert campaign_daypart(epoch(2015, 1, 5, 23, 59)) == "6pm-12am"


class TestTargetingSpec:
    def test_any_matches_everything(self):
        assert TargetingSpec.any().matches(make_request())

    def test_city_filter(self):
        spec = TargetingSpec(cities=frozenset({"Madrid"}))
        assert spec.matches(make_request(city="Madrid"))
        assert not spec.matches(make_request(city="Torello"))

    def test_context_filter(self):
        spec = TargetingSpec(contexts=frozenset({"web"}))
        assert spec.matches(make_request(is_app=False))
        assert not spec.matches(make_request(is_app=True))

    def test_daypart_filter(self):
        spec = TargetingSpec(dayparts=frozenset({"9am-6pm"}))
        assert spec.matches(make_request(hour=12))
        assert not spec.matches(make_request(hour=20))

    def test_day_type_filter(self):
        weekend = TargetingSpec(day_types=frozenset({"weekend"}))
        assert weekend.matches(make_request(day=3))       # Saturday 2015-01-03
        assert not weekend.matches(make_request(day=5))   # Monday

    def test_device_os_slot_adx_iab_filters(self):
        spec = TargetingSpec(
            device_types=frozenset({"tablet"}),
            oses=frozenset({"iOS"}),
            slot_sizes=frozenset({"728x90"}),
            adxs=frozenset({"OpenX"}),
            iab_categories=frozenset({"IAB3"}),
        )
        match = make_request(
            device_type="tablet", os="iOS", slot="728x90", adx="OpenX", iab="IAB3"
        )
        assert spec.matches(match)
        assert not spec.matches(make_request())


class TestCampaign:
    def test_budget_accounting(self):
        campaign = Campaign("c1", "adv", budget_usd=0.01, max_bid_cpm=5.0)
        campaign.record_win(5.0)     # $0.005
        assert campaign.spent_usd == pytest.approx(0.005)
        assert campaign.impressions_won == 1
        assert not campaign.exhausted
        campaign.record_win(5.0)
        assert campaign.exhausted
        assert not campaign.eligible_for(make_request())

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError):
            Campaign("c1", "adv").record_win(-1.0)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Campaign("c1", "adv", max_bid_cpm=0)
        with pytest.raises(ValueError):
            Campaign("c1", "adv", budget_usd=-1)

    def test_unlimited_budget_never_exhausted(self):
        campaign = Campaign("c1", "adv")
        campaign.record_win(100.0)
        assert not campaign.exhausted

